"""CLI and file-format tests.

Every subcommand is driven through main() with temp files, asserting both
the artifacts on disk and the machine-readable error surface.
"""

import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from blurshift import cli, engine, experiments, fileio
from blurshift.cli import _error_code, build_parser, main
from blurshift.diagnostics import CounterexampleBreakdownError, UnsupportedDimensionError
from blurshift.engine import IsolatedCenterError, RunConfig, run
from blurshift.fileio import (
    DimensionMismatchError,
    EmptyInputError,
    MalformedInputError,
    read_points_csv,
)
from blurshift.kernels import (
    GaussianKernel,
    TabulatedKernel,
    TruncatedFlatKernel,
    kernel_to_config,
)
from blurshift.shrinkage import blurring_std_sequence, nonblurring_std_sequence


def write(path, text):
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    stdout = json.loads(captured.out) if captured.out.strip() else None
    stderr = json.loads(captured.err) if captured.err.strip() else None
    return code, stdout, stderr


def src_env() -> dict:
    """This environment with the tested package first on PYTHONPATH."""
    import blurshift

    src = os.path.dirname(os.path.dirname(os.path.abspath(blurshift.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli_subprocess(tmp_path, *argv):
    """Run ``python -m blurshift`` in a subprocess, so numpy's warnings reach
    stderr as they do for a user rather than pytest's warning capture.
    Returns (exit code, stdout lines, stderr text)."""
    out = subprocess.run(
        [sys.executable, "-m", "blurshift", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=src_env(),
    )
    assert "Traceback" not in out.stderr, out.stderr
    return out.returncode, out.stdout.splitlines(), out.stderr


@pytest.fixture
def two_points(tmp_path):
    return write(tmp_path / "p.csv", "0\n1\n")


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["x"] + [f"{v:.17g}" for v in rng.normal(0.0, 1.0, 100)]
    return write(tmp_path / "pts.csv", "\n".join(lines) + "\n")


class TestReadPointsCsv:
    def test_headerless(self, tmp_path):
        path = write(tmp_path / "p.csv", "1.5,2.0\n-3,4\n")
        pts = read_points_csv(path)
        assert pts.positions.tolist() == [[1.5, 2.0], [-3.0, 4.0]]
        assert np.array_equal(pts.weights, [1.0, 1.0])

    def test_header_without_weight(self, tmp_path):
        path = write(tmp_path / "p.csv", "a,b\n1,2\n")
        pts = read_points_csv(path)
        assert pts.positions.tolist() == [[1.0, 2.0]]

    def test_weight_column(self, tmp_path):
        path = write(tmp_path / "p.csv", "x,Weight\n1,2\n3,0.5\n")
        pts = read_points_csv(path)
        assert pts.positions.tolist() == [[1.0], [3.0]]
        assert pts.weights.tolist() == [2.0, 0.5]

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "p.csv", "1\n\n2\n   \n")
        assert read_points_csv(path).n == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            read_points_csv(write(tmp_path / "p.csv", ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyInputError):
            read_points_csv(write(tmp_path / "p.csv", "x,y\n"))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(MalformedInputError):
            read_points_csv(write(tmp_path / "p.csv", "1,2\n3\n"))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(MalformedInputError):
            read_points_csv(write(tmp_path / "p.csv", "1\nfoo\n"))

    def test_bad_weight_rejected(self, tmp_path):
        # zero weight violates the point-set contract
        with pytest.raises(MalformedInputError):
            read_points_csv(write(tmp_path / "p.csv", "x,weight\n1,0\n"))

    def test_weight_header_alone_rejected(self, tmp_path):
        with pytest.raises(MalformedInputError):
            read_points_csv(write(tmp_path / "p.csv", "weight\n1\n"))


class TestCluster:
    def test_gaussian_single_cluster(self, capsys, tmp_path, sample_csv):
        out = tmp_path / "res.json"
        trace = tmp_path / "tr.csv"
        code, echo, _ = run_cli(
            capsys, "cluster", "--input", sample_csv, "--output", str(out),
            "--trace", str(trace), "--kernel", "gaussian", "--tau", "2",
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["n_clusters"] == 1
        assert result["converged"] is True
        assert abs(result["centers"][0][0]) < 0.3
        assert len(result["labels"]) == 100
        assert result["config"]["kernel"] == {"family": "gaussian", "tau": 2.0}
        assert echo["outputs"]["result"] == str(out)
        header = trace.read_text().splitlines()[0]
        assert header == "iteration,step_rows,max_displacement,radius,std_1"

    def test_matches_library_run_bitwise(self, capsys, tmp_path, sample_csv):
        out = tmp_path / "res.json"
        code, _, _ = run_cli(
            capsys, "cluster", "--input", sample_csv, "--output", str(out),
            "--tau", "2",
        )
        assert code == 0
        points = read_points_csv(sample_csv)
        final, _ = run(points, RunConfig(kernel=GaussianKernel(tau=2.0)))
        got = json.loads(out.read_text())["final_positions"]
        assert np.array_equal(np.array(got), final.positions)

    def test_rerun_reproduces_bytes(self, capsys, tmp_path, sample_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                capsys, "cluster", "--input", sample_csv,
                "--output", str(out), "--tau", "1",
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_full_trace_positions_roundtrip(self, capsys, tmp_path):
        src = write(tmp_path / "p.csv", "0.0\n1.0\n3.0\n")
        trace = tmp_path / "tr.csv"
        code, _, _ = run_cli(
            capsys, "cluster", "--input", src, "--output",
            str(tmp_path / "r.json"), "--trace", str(trace),
            "--trace-level", "full", "--tau", "1",
        )
        assert code == 0
        rows = trace.read_text().splitlines()
        assert rows[0].split(",")[4:] == ["std_1", "pos0_1", "pos1_1", "pos2_1"]
        first = rows[1].split(",")
        assert [float(v) for v in first[5:]] == [0.0, 1.0, 3.0]

    def test_trace_without_step_rows_names_the_column(self, tmp_path):
        # step_rows defaults to None on a trace that run did not record
        trace = engine.IterationTrace(
            max_displacements=np.array([math.nan, 0.5]),
            radii=np.array([3.0, 2.0]),
            stds=np.array([[1.0], [0.8]]),
        )
        with pytest.raises(ValueError, match="step_rows"):
            fileio.write_trace_csv(tmp_path / "tr.csv", trace)

    def test_nonblurring_with_separate_data(self, capsys, tmp_path):
        centers = write(tmp_path / "c.csv", "0.2\n0.8\n")
        data = write(tmp_path / "d.csv", "0.0\n1.0\n")
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "cluster", "--input", centers, "--data", data,
            "--output", str(out), "--mode", "nonblurring", "--tau", "1",
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["data"] == data

    def test_wide_cloud_trace_has_finite_stds(self, tmp_path):
        # the squared deviations fit a double, their sum does not
        pts = write(tmp_path / "wide.csv", "0\n0\n0\n1.3e154\n1.3e154\n1.3e154\n")
        trace = tmp_path / "t.csv"
        code, lines, stderr = run_cli_subprocess(
            tmp_path, "cluster", "--input", pts, "--output", str(tmp_path / "w.json"),
            "--trace", str(trace), "--tau", "1",
        )
        assert code == 0
        assert stderr == ""
        assert len(lines) == 1
        assert json.loads(lines[0])["subcommand"] == "cluster"
        stds = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=4, ndmin=1)
        assert stds.size >= 1 and np.all(np.isfinite(stds))

    @pytest.mark.parametrize(
        "points, flags",
        [
            ("0\n1e154\n", ["--tau", "1e-3"]),
            ("0\n1e5\n", ["--tau", "1e-150", "--support-radius", "1e10"]),
        ],
    )
    def test_wide_cloud_against_tau_is_quiet(self, tmp_path, points, flags):
        # exp(-z / 2 tau^2) underflows to 0 long before the divide overflows
        pts = write(tmp_path / "wide.csv", points)
        out = tmp_path / "w.json"
        code, lines, stderr = run_cli_subprocess(
            tmp_path, "cluster", "--input", pts, "--output", str(out), *flags,
        )
        assert code == 0
        assert stderr == ""
        assert len(lines) == 1
        assert json.loads(out.read_text())["n_clusters"] == 2

    # weights whose weighted sums overflow unless they are scaled first
    @pytest.mark.parametrize(
        "points",
        [
            "x,weight\n10,1e300\n-10,1e300\n0,1e300\n",
            "x,weight\n1e200,1e200\n",
            "x,y,weight\n1,2,1e308\n1,2.5,1e308\n",
        ],
        ids=["three_rows", "one_row", "two_d"],
    )
    @pytest.mark.parametrize("command", ["cluster", "diagnose"])
    def test_heavy_weights_are_quiet(self, tmp_path, command, points):
        pts = write(tmp_path / "heavy.csv", points)
        out = tmp_path / "r.json"
        code, lines, stderr = run_cli_subprocess(
            tmp_path, command, "--input", pts, "--output", str(out), "--tau", "1",
        )
        assert code == 0
        assert stderr == ""
        assert len(lines) == 1
        json.loads(out.read_text(), parse_constant=reject_constant)

    @pytest.mark.parametrize(
        "flag, name",
        [("--stop-displacement", "stop_displacement"), ("--merge-tolerance", "merge_tolerance")],
    )
    def test_infinite_engine_flag_named(self, capsys, tmp_path, sample_csv, flag, name):
        out = tmp_path / "r.json"
        code, echo, err = run_cli(
            capsys, "cluster", "--input", sample_csv, "--output", str(out),
            "--tau", "1", flag, "inf",
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "invalid-argument"
        assert name in err["error"]["message"]
        assert not out.exists()

    def test_trace_recorded_only_for_a_trace_file(self, capsys, monkeypatch, tmp_path, sample_csv):
        def no_radius(x):
            raise AssertionError("a radius was computed")

        monkeypatch.setattr(engine, "_max_pairwise_distance", no_radius)
        out = tmp_path / "r.json"
        argv = ["cluster", "--input", sample_csv, "--output", str(out), "--tau", "1"]
        code, echo, _ = run_cli(capsys, *argv)
        assert code == 0
        # the flag's value is still echoed and written
        assert echo["config"]["trace_level"] == "summary"
        assert json.loads(out.read_text())["config"]["trace_level"] == "summary"
        code, _, err = run_cli(capsys, *argv, "--trace", str(tmp_path / "t.csv"))
        assert code == 1 and err["error"]["code"] == "internal-error"

    def test_copies_of_a_coordinate_near_the_largest_double(self, tmp_path):
        # their plain mean overflows, although every distance is 0
        pts = write(tmp_path / "big.csv", "1e307\n" * 200)
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        code, lines, stderr = run_cli_subprocess(
            tmp_path, "cluster", "--input", pts, "--output", str(out),
            "--trace", str(trace), "--tau", "1",
        )
        assert code == 0
        assert stderr == ""
        assert len(lines) == 1
        result = json.loads(out.read_text())
        assert result["centers"] == [[1e307]]
        assert result["final_positions"] == [[1e307]] * 200
        rows = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=(3, 4), ndmin=2)
        assert np.all(rows == 0.0)

    def test_trace_with_level_none_rejected(self, capsys, tmp_path, sample_csv):
        code, _, err = run_cli(
            capsys, "cluster", "--input", sample_csv,
            "--output", str(tmp_path / "r.json"), "--trace",
            str(tmp_path / "t.csv"), "--trace-level", "none", "--tau", "1",
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"


def kernel_flags(kernel) -> list:
    """The kernel flags that describe ``kernel``."""
    cfg = kernel_to_config(kernel)
    flags = ["--kernel", cfg["family"]]
    for key, flag in (("tau", "--tau"), ("support_radius", "--support-radius")):
        if key in cfg:
            flags += [flag, repr(cfg[key])]
    for key, flag in (("levels", "--levels"), ("profile", "--knots")):
        if key in cfg:
            flags += [flag, ",".join(f"{a!r}:{b!r}" for a, b in cfg[key])]
    return flags


class TestKernelFlags:
    @pytest.mark.parametrize(
        "kernel",
        [
            GaussianKernel(tau=1.5),
            GaussianKernel(tau=0.5, support_radius=1.5),
            TruncatedFlatKernel(levels=((0.0, 1.0), (1.0, 0.5))),
            TruncatedFlatKernel(levels=((0.5, 0.9), (2.0, 0.4)), support_radius=1.8),
            TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (3.0, 0.0))),
        ],
    )
    def test_echo_is_the_kernel_config(self, capsys, tmp_path, two_points, kernel):
        code, echo, _ = run_cli(
            capsys, "cluster", "--input", two_points, "--output", str(tmp_path / "r.json"),
            *kernel_flags(kernel),
        )
        assert code == 0
        assert echo["config"]["kernel"] == kernel_to_config(kernel)

    @pytest.mark.parametrize(
        "flags, foreign",
        [
            (["--kernel", "truncated_flat", "--tau", "2", "--levels", "1:0.5"], "--tau"),
            (["--tau", "1", "--levels", "1:0.5"], "--levels"),
            (["--tau", "1", "--knots", "x"], "--knots"),
            (["--kernel", "tabulated", "--knots", "0:1,1:0", "--levels", "1:0.5"], "--levels"),
        ],
    )
    def test_flag_of_another_family_rejected(self, capsys, tmp_path, two_points, flags, foreign):
        out = tmp_path / "r.json"
        code, echo, err = run_cli(
            capsys, "cluster", "--input", two_points, "--output", str(out), *flags
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "invalid-kernel"
        assert foreign in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, flag",
        [("gaussian", "--tau"), ("truncated_flat", "--levels"), ("tabulated", "--knots")],
    )
    def test_missing_family_flag_named(self, capsys, tmp_path, two_points, family, flag):
        code, _, err = run_cli(
            capsys, "cluster", "--input", two_points, "--output", str(tmp_path / "r.json"),
            "--kernel", family,
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-kernel"
        assert flag in err["error"]["message"]

    @pytest.mark.parametrize("family, flag", [("truncated_flat", "--levels=1:0.5"),
                                              ("tabulated", "--knots=0:1,1:0.5")])
    def test_nan_support_radius_rejected(self, capsys, tmp_path, two_points, family, flag):
        # nan is no radius, and no request for the profile's own one
        code, _, err = run_cli(
            capsys, "cluster", "--input", two_points, "--output", str(tmp_path / "r.json"),
            "--kernel", family, flag, "--support-radius", "nan",
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-kernel"
        assert "--support-radius" in err["error"]["message"]

    def test_malformed_pairs_are_invalid_argument(self, capsys, tmp_path, two_points):
        code, _, err = run_cli(
            capsys, "cluster", "--input", two_points, "--output", str(tmp_path / "r.json"),
            "--kernel", "truncated_flat", "--levels", "1:0.5,x",
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"
        assert "--levels" in err["error"]["message"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kernel", "truncated_flat", "--levels", "1e200:0.5"],
            ["--kernel", "truncated_flat", "--levels", "nan:0.5"],
            ["--kernel", "tabulated", "--knots", "0:1,inf:0.5"],
            ["--kernel", "tabulated", "--knots", "0:1,nan:0.5"],
        ],
    )
    def test_distance_without_finite_square_is_one_error_line(self, tmp_path, two_points, flags):
        code, stdout, stderr = run_cli_subprocess(
            tmp_path, "cluster", "--input", two_points, "--output", "r.json", *flags
        )
        assert code == 1
        assert stdout == []
        lines = stderr.splitlines()
        assert len(lines) == 1, stderr
        error = json.loads(lines[0])["error"]
        assert error["code"] == "invalid-kernel"
        assert flags[2] in error["message"]
        assert not (tmp_path / "r.json").exists()


class TestTheory:
    def test_reference_sequences(self, capsys, tmp_path):
        out = tmp_path / "th.csv"
        code, echo, _ = run_cli(
            capsys, "theory", "--sigma0", "1", "--tau", "2", "--steps", "3",
            "--output", str(out),
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert rows[0] == ["step", "blurring_std", "nonblurring_std"]
        blur = [float(r[1]) for r in rows[1:]]
        fixed = [float(r[2]) for r in rows[1:]]
        assert blur == pytest.approx(
            blurring_std_sequence(1.0, 2.0, 3).tolist(), rel=0
        )
        assert fixed == pytest.approx(
            nonblurring_std_sequence(1.0, 2.0, 3).tolist(), rel=0
        )
        assert blur[0] == 1.0 and fixed[0] == 1.0  # step 0 present
        assert echo["config"] == {"sigma0": 1.0, "tau": 2.0, "steps": 3}

    def test_negative_tau_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "theory", "--tau", "-1", "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"

    @pytest.mark.parametrize("sigma0", ["1e200", "1e-200"])
    def test_sigma0_out_of_range_named(self, capsys, tmp_path, sigma0):
        code, _, err = run_cli(
            capsys, "theory", "--sigma0", sigma0, "--tau", "1",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"
        assert "sigma0" in err["error"]["message"]

    def test_large_sigma0_is_finite_and_quiet(self, tmp_path):
        # the variance's cube overflows from sigma0 about 1.7e51
        code, lines, stderr = run_cli_subprocess(
            tmp_path, "theory", "--sigma0", "1e60", "--tau", "1", "--output", "t.csv"
        )
        assert code == 0
        assert stderr == ""
        assert len(lines) == 1
        table = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table))


class TestExperiment:
    def test_efficiency_report_and_values(self, capsys, tmp_path):
        out, csv_out = tmp_path / "rep.json", tmp_path / "vals.csv"
        code, echo, _ = run_cli(
            capsys, "experiment", "--kind", "efficiency", "--tau", "1",
            "--reps", "12", "--seed", "4", "--out", str(out),
            "--emit-csv", str(csv_out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["kind"] == "efficiency"
        assert report["config"]["seed"] == 4
        assert set(report["statistics"]) == {"sample_mean", "blurring", "nonblurring"}
        for stat in report["statistics"].values():
            assert set(stat) == {"mean", "std", "count"}
        kept = report["statistics"]["blurring"]["count"]
        assert kept + report["excluded_replications"] == 12
        rows = csv_out.read_text().splitlines()
        assert rows[0] == "statistic,replication,value"
        assert len(rows) == 1 + 3 * kept
        assert echo["config"]["replications"] == 12

    @pytest.mark.parametrize("kind", ["efficiency", "convergence-rate"])
    @pytest.mark.parametrize("bad", ["--out", "--emit-csv"])
    def test_unwritable_output_fails_before_any_replication(
        self, capsys, tmp_path, monkeypatch, kind, bad
    ):
        def engine_called(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(experiments, "_iterate", engine_called)
        monkeypatch.setattr(experiments, "run", engine_called)
        paths = {"--out": tmp_path / "rep.json", "--emit-csv": tmp_path / "vals.csv"}
        paths[bad] = tmp_path / "missing" / "x.out"
        code, echo, err = run_cli(
            capsys, "experiment", "--kind", kind, "--tau", "1", "--reps",
            "1" if kind == "convergence-rate" else "2",
            *(str(part) for flag, path in paths.items() for part in (flag, path)),
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "unwritable-output"
        assert str(paths[bad]) in err["error"]["message"]
        assert list(tmp_path.iterdir()) == []

    def test_failed_experiment_leaves_no_output(self, capsys, tmp_path, monkeypatch):
        def engine_failed(*args, **kwargs):
            raise MemoryError("no room")

        monkeypatch.setattr(experiments, "_iterate", engine_failed)
        code, echo, err = run_cli(
            capsys, "experiment", "--kind", "efficiency", "--tau", "1", "--reps", "2",
            "--out", str(tmp_path / "rep.json"), "--emit-csv", str(tmp_path / "vals.csv"),
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "internal-error"
        assert list(tmp_path.iterdir()) == []

    def test_outputs_overwrite_older_files(self, capsys, tmp_path):
        out, csv_out = tmp_path / "rep.json", tmp_path / "vals.csv"
        out.write_text("old")
        # an output named through a symlink is written to the symlink's target
        (tmp_path / "target.csv").write_text("old")
        csv_out.symlink_to("target.csv")
        argv = ["experiment", "--kind", "efficiency", "--tau", "1", "--reps", "3",
                "--out", str(out), "--emit-csv", str(csv_out)]
        assert run_cli(capsys, *argv)[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.json", "target.csv", "vals.csv"]
        assert csv_out.is_symlink()
        assert csv_out.read_text().startswith("statistic,replication,value")
        report = json.loads(out.read_text())
        assert report["statistics"]["blurring"]["count"] == 3
        # the median and largest iterations of each mode, over the runs it made
        iterations = experiments.run_efficiency(
            experiments.ExperimentConfig(kind="efficiency", tau=1.0, replications=3)
        ).iterations
        for mode, counts in iterations.items():
            assert report["iterations"][mode] == {
                "median": float(np.median(counts)), "max": int(counts.max())
            }

    def test_unwritable_symlink_target_leaves_no_file(self, capsys, tmp_path):
        # the check creates a missing target through the symlink, then removes it
        (tmp_path / "rep.json").symlink_to("made.json")
        argv = ["experiment", "--kind", "efficiency", "--tau", "1", "--reps", "2",
                "--out", str(tmp_path / "rep.json"),
                "--emit-csv", str(tmp_path / "missing" / "vals.csv")]
        code, echo, err = run_cli(capsys, *argv)
        assert code == 1 and err["error"]["code"] == "unwritable-output"
        assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
        assert (tmp_path / "rep.json").is_symlink()

    def test_report_written_into_a_pipe(self, capsys, tmp_path):
        fifo = tmp_path / "rep.fifo"
        os.mkfifo(fifo)
        # with no reader, the early check must not wait for one
        checker = threading.Thread(target=fileio._check_outputs, args=(str(fifo),), daemon=True)
        checker.start()
        checker.join(10)
        assert not checker.is_alive()
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            argv = ["experiment", "--kind", "efficiency", "--tau", "1", "--reps", "2",
                    "--out", str(fifo)]
            assert run_cli(capsys, *argv)[0] == 0
            report = json.loads(os.read(reader, 1 << 16))
        finally:
            os.close(reader)
        assert report["statistics"]["blurring"]["count"] == 2
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes through any permission")
    def test_writable_file_in_a_read_only_directory(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        out.write_text("old")
        tmp_path.chmod(0o555)
        try:
            argv = ["experiment", "--kind", "efficiency", "--tau", "1", "--reps", "2",
                    "--out", str(out)]
            assert run_cli(capsys, *argv)[0] == 0
            assert json.loads(out.read_text())["statistics"]["blurring"]["count"] == 2
            assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
        finally:
            tmp_path.chmod(0o755)

    def test_reports_carry_no_workers_key(self, capsys, tmp_path):
        for kind, reps in (("efficiency", "2"), ("convergence-rate", "1")):
            out = tmp_path / f"{kind}.json"
            code, echo, _ = run_cli(
                capsys, "experiment", "--kind", kind, "--tau", "2",
                "--reps", reps, "--out", str(out),
            )
            assert code == 0
            assert "workers" not in json.loads(out.read_text())
            assert "workers" not in echo["config"]

    def test_same_seed_identical_report(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert run_cli(
                capsys, "experiment", "--kind", "efficiency", "--tau", "1",
                "--reps", "6", "--seed", "9", "--out", str(p),
            )[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_env_ignored(self, capsys, tmp_path, monkeypatch):
        # --seed is the one way to set the seed
        monkeypatch.setenv("BLURSHIFT_SEED", "99")
        code, echo, _ = run_cli(
            capsys, "experiment", "--kind", "efficiency", "--tau", "1",
            "--reps", "2", "--out", str(tmp_path / "rep.json"),
        )
        assert code == 0
        assert echo["config"]["seed"] == 0

    @pytest.mark.parametrize("multiple", ["-2", "nan"])
    def test_bad_truncation_multiple_named(self, capsys, tmp_path, multiple):
        code, _, err = run_cli(
            capsys, "experiment", "--kind", "robustness", "--tau", "1",
            "--reps", "4", "--out", str(tmp_path / "r.json"),
            "--truncation-multiple", multiple,
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"
        assert "truncation_multiple" in err["error"]["message"]

    def test_robustness_truncation_defaults_on(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code, echo, _ = run_cli(
            capsys, "experiment", "--kind", "robustness", "--tau", "1",
            "--reps", "4", "--out", str(out),
        )
        assert code == 0
        assert echo["config"]["truncation_multiple"] == 3.0

    def test_truncation_none_flag(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code, echo, _ = run_cli(
            capsys, "experiment", "--kind", "robustness", "--tau", "1",
            "--reps", "4", "--out", str(out), "--truncation-multiple", "none",
        )
        assert code == 0
        assert echo["config"]["truncation_multiple"] is None

    def test_truncation_off_is_not_none(self, capsys, tmp_path):
        # 'none' is the one spelling of the pure Gaussian
        out = tmp_path / "rep.json"
        code, echo, err = run_cli(
            capsys, "experiment", "--kind", "robustness", "--tau", "1",
            "--reps", "4", "--out", str(out), "--truncation-multiple", "off",
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "invalid-argument"
        assert "--truncation-multiple" in err["error"]["message"]
        assert not out.exists()

    def test_convergence_rate_series(self, capsys, tmp_path):
        out, csv_out = tmp_path / "cr.json", tmp_path / "cr.csv"
        code, echo, _ = run_cli(
            capsys, "experiment", "--kind", "convergence-rate", "--tau", "2",
            "--seed", "3", "--out", str(out), "--emit-csv", str(csv_out),
        )
        assert code == 0
        assert echo["config"]["replications"] == 1  # per-kind default
        # the series labels no clusters, so it has no merge tolerance
        assert echo["config"]["merge_tolerance"] is None
        report = json.loads(out.read_text())
        assert report["config"]["merge_tolerance"] is None
        assert set(report) >= {"config", "blurring", "nonblurring"}
        stds = report["blurring"]["stds"]
        assert stds[1] / stds[0] < 0.3
        rows = csv_out.read_text().splitlines()
        assert rows[0] == "mode,iteration,mean,std,log10_std"
        first = rows[1].split(",")
        assert first[0] == "blurring"
        assert float(first[4]) == pytest.approx(math.log10(float(first[3])))

    def test_convergence_rate_reps_other_than_one_rejected(self, capsys, tmp_path):
        out = tmp_path / "cr.json"
        code, echo, err = run_cli(
            capsys, "experiment", "--kind", "convergence-rate", "--tau", "1",
            "--reps", "7", "--out", str(out),
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "invalid-argument"
        assert "replications" in err["error"]["message"]
        assert not out.exists()

    def test_convergence_rate_merge_tolerance_rejected(self, capsys, tmp_path):
        # the series labels no clusters, so the tolerance would go unread
        out = tmp_path / "cr.json"
        code, echo, err = run_cli(
            capsys, "experiment", "--kind", "convergence-rate", "--tau", "1",
            "--merge-tolerance", "5", "--out", str(out),
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "invalid-argument"
        assert "merge_tolerance" in err["error"]["message"]
        assert not out.exists()

    def test_convergence_rate_single_point_is_quiet(self, tmp_path):
        # one point has no sample spread: the series is 0, with no warnings
        out = tmp_path / "cr.json"
        code, lines, stderr = run_cli_subprocess(
            tmp_path, "experiment", "--kind", "convergence-rate", "--tau", "1",
            "--n-points", "1", "--out", str(out),
        )
        assert code == 0
        assert len(lines) == 1
        assert stderr == ""
        report = json.loads(out.read_text())
        for mode in ("blurring", "nonblurring"):
            assert report[mode]["stds"] == [0.0] * len(report[mode]["stds"])


class TestDiagnose:
    def test_auto_checks_1d(self, capsys, tmp_path, sample_csv):
        out = tmp_path / "diag.json"
        code, echo, _ = run_cli(
            capsys, "diagnose", "--input", sample_csv, "--output", str(out),
            "--tau", "2",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["radius"]["nonincreasing"] is True
        assert report["hull"]["nested"] is True
        assert report["directional"]["contained"] is True
        # 20 random directions
        assert report["directional"]["n_directions"] == 20
        assert report["config"] == echo["config"]
        assert "n_directions" not in report["config"]
        assert report["influence"]["vacuous"] is True  # single cluster
        assert report["n_clusters"] == 1

    def test_auto_skips_hull_in_3d(self, capsys, tmp_path):
        src = write(tmp_path / "p.csv", "1,2,3\n4,5,6\n0,0,1\n")
        out = tmp_path / "diag.json"
        code, _, _ = run_cli(
            capsys, "diagnose", "--input", src, "--output", str(out),
            "--tau", "5",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "hull" not in report
        assert report["radius"]["nonincreasing"] is True

    @pytest.fixture
    def no_run(self, monkeypatch):
        # a check list that cannot be honoured fails before the engine runs
        def ran(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(cli, "run", ran)

    @pytest.mark.usefixtures("no_run")
    def test_explicit_hull_in_3d_fails(self, capsys, tmp_path):
        src = write(tmp_path / "p.csv", "1,2,3\n4,5,6\n")
        code, _, err = run_cli(
            capsys, "diagnose", "--input", src, "--output",
            str(tmp_path / "x.json"), "--tau", "5", "--checks", "radius,hull",
        )
        assert code == 1
        assert err["error"] == {
            "code": "unsupported-dimension",
            "message": str(UnsupportedDimensionError(3)),
        }

    @pytest.mark.usefixtures("no_run")
    def test_unknown_check_rejected(self, capsys, tmp_path, sample_csv):
        code, _, err = run_cli(
            capsys, "diagnose", "--input", sample_csv, "--output",
            str(tmp_path / "x.json"), "--tau", "2", "--checks", "vibes",
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"

    @pytest.mark.usefixtures("no_run")
    @pytest.mark.parametrize("checks", ["auto,radius", "radius,auto", ",", ""])
    def test_unhonourable_check_list_rejected(self, capsys, tmp_path, sample_csv, checks):
        # 'auto' stands alone, and the list names at least one check
        out = tmp_path / "x.json"
        code, echo, err = run_cli(
            capsys, "diagnose", "--input", sample_csv, "--output", str(out),
            "--tau", "2", f"--checks={checks}",
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "invalid-argument"
        assert "--checks" in err["error"]["message"]
        assert not out.exists()

    def test_two_blob_influence(self, capsys, tmp_path):
        src = write(tmp_path / "p.csv", "-3.0\n-3.1\n3.0\n3.1\n")
        out = tmp_path / "diag.json"
        code, _, _ = run_cli(
            capsys, "diagnose", "--input", src, "--output", str(out),
            "--kernel", "truncated_flat", "--levels", "1:0.5",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_clusters"] == 2
        assert report["influence"]["max_cross_influence"] == 0.0
        assert report["influence"]["vacuous"] is False


class TestCounterexample:
    def test_alternating_trajectory_csv(self, capsys, tmp_path):
        out = tmp_path / "ce.csv"
        code, echo, _ = run_cli(
            capsys, "counterexample", "--iterations", "20", "--output", str(out)
        )
        assert code == 0
        assert echo["config"]["flips"] == 20
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert rows[0] == ["iteration", "x1", "x2", "x3", "w1", "w2", "w3"]
        assert len(rows) == 22  # header + 21 states
        x1 = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(np.sign(x1[1:]) == -np.sign(x1[:-1]))
        assert np.all(np.abs(x1) >= 0.05)
        assert all(math.isnan(float(v)) for v in rows[-1][4:])
        w1 = [float(r[4]) for r in rows[1:-1]]
        assert all(v == 1.0 for v in w1)

    def test_bad_deltas_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "counterexample", "--deltas", "0.1,0.1",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"

    def test_breakdown_reported(self, capsys, tmp_path):
        # subnormal offsets leave no power-of-two weight that keeps the bands
        code, echo, err = run_cli(
            capsys, "counterexample", "--deltas", "1e-320,1e-320,1e-320",
            "--iterations", "5", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1 and echo is None
        assert err["error"]["code"] == "counterexample-breakdown"

    def test_non_numeric_deltas_named(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "counterexample", "--deltas", "a,b,c",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"
        assert "--deltas" in err["error"]["message"]


class TestErrorSurface:
    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cluster", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "x.json"), "--tau", "1",
        )
        assert code == 1
        assert err["error"]["code"] == "missing-input"

    def test_missing_data_is_missing_input(self, capsys, tmp_path, sample_csv):
        code, _, err = run_cli(
            capsys, "cluster", "--input", sample_csv, "--data", str(tmp_path / "nope.csv"),
            "--mode", "nonblurring", "--output", str(tmp_path / "x.json"), "--tau", "1",
        )
        assert code == 1
        assert err["error"]["code"] == "missing-input"

    # every output flag of every subcommand, with each other output named
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["cluster", "--input", "pts.csv", "--tau", "1", "--trace", "t.csv"], "--output"),
            (["cluster", "--input", "pts.csv", "--tau", "1", "--output", "r.json"], "--trace"),
            (["theory", "--tau", "1"], "--output"),
            (
                ["experiment", "--kind", "convergence-rate", "--tau", "1",
                 "--emit-csv", "v.csv"],
                "--out",
            ),
            (
                ["experiment", "--kind", "efficiency", "--tau", "1", "--reps", "2",
                 "--n-points", "10", "--out", "r.json"],
                "--emit-csv",
            ),
            (["diagnose", "--input", "pts.csv", "--tau", "1"], "--output"),
            (["counterexample"], "--output"),
            (
                ["experiment", "--kind", "convergence-rate", "--tau", "1", "--out", "r.json"],
                "--emit-csv",
            ),
            (
                ["experiment", "--kind", "efficiency", "--tau", "1", "--reps", "2",
                 "--n-points", "10", "--emit-csv", "v.csv"],
                "--out",
            ),
        ],
    )
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output(self, capsys, tmp_path, monkeypatch, argv, flag, target):
        # found before the work starts, and no other output is written
        def work_started(*args, **kwargs):
            raise AssertionError("the work started")

        for owner, name in [
            (cli, "run"), (cli, "run_counterexample"), (cli, "blurring_std_sequence"),
            (cli, "nonblurring_std_sequence"), (experiments, "_iterate"), (experiments, "run"),
        ]:
            monkeypatch.setattr(owner, name, work_started)
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "pts.csv", "0\n1\n")
        (tmp_path / "a_dir").mkdir()
        path = "missing/x.out" if target == "missing_dir" else "a_dir"
        code = main([*argv, flag, path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == "unwritable-output"
        assert path in error["message"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_dir", "pts.csv"]

    def test_isolated_center(self, capsys, tmp_path):
        centers = write(tmp_path / "c.csv", "0\n10\n")
        data = write(tmp_path / "d.csv", "0.5\n")
        code, _, err = run_cli(
            capsys, "cluster", "--input", centers, "--data", data,
            "--output", str(tmp_path / "x.json"), "--mode", "nonblurring",
            "--kernel", "truncated_flat", "--levels", "1:0.5",
        )
        assert code == 1
        assert err["error"]["code"] == "isolated-center"

    def test_data_with_blurring_rejected(self, capsys, tmp_path):
        pts = write(tmp_path / "p.csv", "0\n1\n")
        code, _, err = run_cli(
            capsys, "cluster", "--input", pts, "--data", pts,
            "--output", str(tmp_path / "x.json"), "--tau", "1",
        )
        assert code == 1
        assert err["error"]["code"] == "invalid-argument"

    def test_usage_error_is_json_too(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["cluster", "--no-such-flag"])
        assert exc_info.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "invalid-argument"

    def test_breakdown_error_mapping(self):
        assert _error_code(CounterexampleBreakdownError(3, "stuck")) \
            == "counterexample-breakdown"
        assert _error_code(IsolatedCenterError(0)) == "isolated-center"
        assert _error_code(DimensionMismatchError("x")) == "dimension-mismatch"
        assert _error_code(KeyError("x")) == "internal-error"

    def test_unmapped_exception_is_internal_error(self, capsys, tmp_path, monkeypatch):
        def broken(*args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "blurring_std_sequence", broken)
        code, stdout, stderr = run_cli(
            capsys, "theory", "--tau", "1", "--output", str(tmp_path / "t.csv")
        )
        assert code == 1
        assert stdout is None
        assert stderr["error"]["code"] == "internal-error"

    @pytest.mark.parametrize(
        "command, code",
        [
            (["cluster", "--input", "pts.csv", "--output", "r.json"], "invalid-kernel"),
            (["experiment", "--kind", "efficiency", "--out", "r.json"], "invalid-argument"),
        ],
    )
    @pytest.mark.parametrize("tau", ["1e160", "1e-170"])
    def test_bandwidth_out_of_range(self, capsys, tmp_path, monkeypatch, command, code, tau):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "pts.csv", "0\n1\n")
        status, stdout, stderr = run_cli(capsys, *command, "--tau", tau)
        assert status == 1
        assert stdout is None
        assert stderr["error"]["code"] == code
        assert "tau" in stderr["error"]["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "robustness", "--tau", "0.5", "--reps", "3", "--max-iterations", "50"],
        ],
    )
    def test_too_few_converged(self, capsys, tmp_path, argv):
        code = main(["experiment", *argv, "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "too-few-converged"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("kind", ["efficiency", "robustness"])
    def test_table_kind_needs_two_replications(self, capsys, tmp_path, monkeypatch, kind):
        # one replication has no spread to summarize: rejected before any run
        def no_run(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(experiments, "run", no_run)
        out = tmp_path / "r.json"
        code = main(["experiment", "--kind", kind, "--tau", "1", "--reps", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == "invalid-argument"
        assert "replications" in error["message"] and kind in error["message"]
        assert not out.exists()

    @staticmethod
    def assert_one_overflow_line(tmp_path, points_text):
        pts = write(tmp_path / "wide.csv", points_text)
        code, stdout, stderr = run_cli_subprocess(
            tmp_path, "cluster", "--input", pts, "--output", str(tmp_path / "r.json"),
            "--tau", "1",
        )
        assert code == 1
        assert stdout == []
        lines = stderr.splitlines()
        assert len(lines) == 1, stderr
        assert json.loads(lines[0])["error"]["code"] == "invalid-argument"
        assert "overflow" in json.loads(lines[0])["error"]["message"]

    def test_overflowing_spread_is_one_error_line(self, tmp_path):
        self.assert_one_overflow_line(tmp_path, "0\n1e160\n3e160\n")

    def test_overflowing_pair_is_one_error_line(self, tmp_path):
        # squared distances from the mean fit in a float; the pair's does not
        self.assert_one_overflow_line(tmp_path, "0\n1.5e154\n")

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "blurshift"


def test_readme_lists_every_error_code():
    # the "Error codes:" paragraph names exactly the codes main can emit
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    paragraph = text[text.index("Error codes:"):].split("\n\n")[0]
    listed = set(re.findall(r"`([a-z-]+)`", paragraph))
    assert listed == {code for _, code in cli._ERROR_CODES} | {"internal-error"}


def test_import_loads_neither_logging_nor_thread_pool():
    # the engine imports its thread pool only for steps that use one:
    # concurrent.futures pulls in logging, a cost on every CLI start
    code = (
        "import sys, blurshift.cli; "
        "print([m for m in ('logging', 'concurrent.futures') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(),
        check=True,
    )
    assert out.stdout.strip() == "[]"

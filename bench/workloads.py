"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, then
exposes ``ops``: a fixed list of zero-argument calls into the public API
that make up one pass. ``check(k, output)`` verifies op ``k``'s output
against an independent reference and returns ``(error or None, pairs)``,
where ``pairs`` is the op's nominal number of pair evaluations. All three
are closed loops: one caller, and each op starts when the previous one
has returned.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

import oracles

REFERENCE = Path(__file__).with_name("mc_reference.json")


class McSmall:
    """Monte Carlo tables in miniature: efficiency at tau 0.5, 1, 2 and
    robustness at tau 0.5, 2 on 1-d samples of n=100, the shape of the
    efficiency and robustness acceptance tables. One op is one experiment
    call of ``REPS_PER_CALL`` replications; the seed picks which recorded
    master seeds a pass runs."""

    name = "mc_small"
    SETTINGS = (
        ("efficiency", 0.5),
        ("efficiency", 1.0),
        ("efficiency", 2.0),
        ("robustness", 0.5),
        ("robustness", 2.0),
    )
    N_POINTS = 100
    REPS_PER_CALL = 10
    CALLS_PER_SETTING = 10
    reps_per_op = REPS_PER_CALL
    cliff_ops = None
    known_defect = None

    def __init__(self, package):
        self.experiments = package.experiments

    @staticmethod
    def key(kind, tau, master):
        return f"{kind}:{tau:g}:{master}"

    def setup(self, seed, workdir):
        reference = json.loads(REFERENCE.read_text())
        if (reference["n_points"], reference["replications"]) != (
            self.N_POINTS,
            self.REPS_PER_CALL,
        ):
            raise RuntimeError(f"{REFERENCE.name} was recorded for another shape")
        # one master seed from each stratum of the recorded work, so every
        # benchmark seed's pass does nearly the same work
        work = {
            master: sum(
                reference["calls"][self.key(kind, tau, master)]["pairs"]
                for kind, tau in self.SETTINGS
            )
            for master in reference["master_seeds"]
        }
        ranked = sorted(work, key=lambda master: (work[master], master))
        rng = np.random.default_rng(seed)
        masters = [
            int(rng.choice(stratum))
            for stratum in np.array_split(np.array(ranked), self.CALLS_PER_SETTING)
        ]
        self.ops, self.expected = [], []
        for master in masters:
            for kind, tau in self.SETTINGS:
                config = self.experiments.ExperimentConfig(
                    kind=kind,
                    tau=tau,
                    n_points=self.N_POINTS,
                    replications=self.REPS_PER_CALL,
                    seed=master,
                )
                self.ops.append(functools.partial(self._call, config))
                self.expected.append(reference["calls"][self.key(kind, tau, master)])

    def _call(self, config):
        if config.kind == "efficiency":
            return self.experiments.run_efficiency(config)
        return self.experiments.run_robustness(config)

    def check(self, k, report):
        want = self.expected[k]
        if report.excluded_replications != want["excluded"]:
            return (
                f"op {k}: {report.excluded_replications} excluded, "
                f"recorded {want['excluded']}"
            ), want["pairs"]
        for stat in ("sample_mean", "blurring", "nonblurring"):
            for field in ("mean", "std"):
                got = getattr(getattr(report, stat), field)
                if not abs(got - want[stat][field]) <= 5e-4:
                    return (
                        f"op {k}: {stat} {field} {got:.6f}, recorded "
                        f"{want[stat][field]:.6f}"
                    ), want["pairs"]
        return None, want["pairs"]


class StepSweep:
    """Single blurring and nonblurring steps on Gaussian clouds, on both
    sides of every engine size threshold (3000 points, 3000^2 pairs), with
    the factorised untruncated Gaussian, a truncated Gaussian and a
    piecewise-constant kernel. Nonblurring moves every point of the cloud
    against the cloud, so m = n and no centre can be isolated."""

    name = "step_sweep"
    reps_per_op = 1
    known_defect = None
    KERNELS = {
        "gaussian": {"family": "gaussian", "tau": 1.0},
        "truncated": {"family": "gaussian", "tau": 1.0, "support": 3.0},
        "flat": {"family": "flat", "levels": [[0.5, 0.8], [1.0, 0.5], [2.0, 0.2]]},
        # the one-step shrinkage acceptance test's bandwidths at n = 1e5
        "c2_p1": {"family": "gaussian", "tau": 2.0},
        "c2_p2": {"family": "gaussian", "tau": 1.5},
    }
    C2_COV = np.array([[2.0, 0.6], [0.6, 0.5]])
    SIZES = (1000, 3000, 3001, 6000)
    LARGE = 20000
    SAMPLED_ROWS = 8

    def __init__(self, package):
        self.engine = package.engine
        self.kernels = package.kernels

    @classmethod
    def plan(cls):
        """(mode, kernel, n, p) for every op of a pass."""
        plan = []
        for p in (1, 2):
            plan += [("blurring", "gaussian", n, p) for n in cls.SIZES]
            plan.append(("blurring", f"c2_p{p}", cls.LARGE, p))
        plan += [("blurring", "truncated", n, 1) for n in cls.SIZES]
        plan += [("blurring", "truncated", n, 2) for n in (3000, 3001)]
        plan += [("blurring", "flat", n, 1) for n in (1000, 3000, 3001)]
        plan.append(("blurring", "flat", 1000, 2))
        plan += [("nonblurring", "gaussian", n, 1) for n in cls.SIZES]
        plan += [("nonblurring", "truncated", n, 2) for n in cls.SIZES]
        plan += [("nonblurring", "flat", n, 1) for n in (1000, 3000, 3001)]
        return plan

    def _kernel(self, spec):
        if spec["family"] == "gaussian":
            return self.kernels.GaussianKernel(
                tau=spec["tau"], support_radius=spec.get("support", math.inf)
            )
        return self.kernels.TruncatedFlatKernel(
            levels=tuple(tuple(level) for level in spec["levels"])
        )

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        plan = self.plan()
        self.clouds = {}
        for n, p in sorted({(n, p) for _, _, n, p in plan}):
            x = rng.standard_normal((n, p))
            if n == self.LARGE and p == 2:
                x = x @ np.linalg.cholesky(self.C2_COV).T
            self.clouds[n, p] = (x, self.engine.PointSet(x))
        self.specs, self.ops = [], []
        for mode, kernel_name, n, p in plan:
            spec = self.KERNELS[kernel_name]
            x, points = self.clouds[n, p]
            kernel = self._kernel(spec)
            self.specs.append((spec, x))
            if mode == "blurring":
                op = functools.partial(self._blur, points, kernel)
            else:
                op = functools.partial(self._nonblur, x, points, kernel)
            self.ops.append(op)
        # (op index, n) of the Gaussian p=1 blurring steps either side of
        # the dense/tiled threshold
        self.cliff_ops = tuple(
            (plan.index(("blurring", "gaussian", n, 1)), n) for n in (3000, 3001)
        )

    def _blur(self, points, kernel):
        return self.engine.blurring_step(points, kernel).positions

    def _nonblur(self, x, points, kernel):
        return self.engine.nonblurring_step(x, points, kernel)

    def check(self, k, out):
        spec, x = self.specs[k]
        n = x.shape[0]
        pairs = n * n
        if out.shape != x.shape or not np.all(np.isfinite(out)):
            return f"op {k}: output shape {out.shape} or non-finite values", pairs
        rows = np.random.default_rng([self.seed, k]).choice(
            n, self.SAMPLED_ROWS, replace=False
        )
        want = oracles.step_rows(x[rows], x, spec)
        tol = 1e-12 * max(1.0, float(np.abs(x).max()))
        err = float(np.abs(out[rows] - want).max())
        if not err <= tol:
            return f"op {k}: sampled rows off by {err:.3g} > {tol:.3g}", pairs
        return None, pairs


class ClusterCli:
    """In-process ``blurshift.cli.main`` over CSV inputs, the user path:
    blurring ``cluster`` with a summary trace on 100 Gaussian blobs laid on
    a 10 x 10 grid in positive coordinates (0 to 90), nonblurring
    ``cluster`` of a few hundred centres drawn from that cloud, and
    ``diagnose`` on a 400-point cloud. The cloud is kept where real data
    sits, off the origin. Both ``cluster`` commands merge at 1e-3, far
    above the labelling's rounding error there and far below the blob
    spacing. ``known_defect`` relabels the last blurring result at the CLI
    default of 1e-6, where that rounding error splits clusters."""

    name = "cluster_cli"
    reps_per_op = 1
    cliff_ops = None
    GRID, SPACING, PER_BLOB, BLOB_STD = 10, 10.0, 50, 0.5
    N_CENTRES = 300
    DIAG_CENTRES = ((30.0, 30.0), (38.0, 30.0), (30.0, 38.0), (38.0, 38.0))
    DIAG_PER_BLOB, DIAG_STD = 100, 0.7
    KERNEL_FLAGS = ["--tau", "1", "--support-radius", "3"]
    MERGE_TOLERANCE = 1e-3
    DEFAULT_MERGE_TOLERANCE = 1e-6  # the CLI default

    def __init__(self, package):
        self.cli = package.cli
        self.engine = package.engine

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid = np.array(
            [(i, j) for i in range(self.GRID) for j in range(self.GRID)], float
        ) * self.SPACING
        cloud = np.repeat(grid, self.PER_BLOB, axis=0)
        cloud += self.BLOB_STD * rng.standard_normal(cloud.shape)
        cloud = cloud[rng.permutation(len(cloud))]
        centres = cloud[rng.choice(len(cloud), self.N_CENTRES, replace=False)]
        small = np.repeat(np.array(self.DIAG_CENTRES), self.DIAG_PER_BLOB, axis=0)
        small += self.DIAG_STD * rng.standard_normal(small.shape)
        self.sizes = {"cloud": len(cloud), "centres": len(centres), "small": len(small)}
        path = {}
        for name, values in (("cloud", cloud), ("centres", centres), ("small", small)):
            path[name] = str(workdir / f"{name}.csv")
            np.savetxt(path[name], values, fmt="%.17g", delimiter=",")
        for name in ("blur", "fixed", "diag"):
            path[name] = str(workdir / f"{name}.json")
        path["trace"] = str(workdir / "blur_trace.csv")
        self.path = path
        self.argvs = [
            ["cluster", "--input", path["cloud"], "--output", path["blur"],
             "--trace", path["trace"], "--trace-level", "summary",
             "--merge-tolerance", f"{self.MERGE_TOLERANCE:g}", *self.KERNEL_FLAGS],
            ["cluster", "--input", path["centres"], "--data", path["cloud"],
             "--mode", "nonblurring", "--output", path["fixed"],
             "--merge-tolerance", f"{self.MERGE_TOLERANCE:g}", *self.KERNEL_FLAGS],
            ["diagnose", "--input", path["small"], "--output", path["diag"],
             *self.KERNEL_FLAGS],
        ]
        self.ops = [functools.partial(self._main, argv) for argv in self.argvs]

    def _main(self, argv):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = self.cli.main(argv)
        return code, captured.getvalue()

    def check(self, k, out):
        code, stdout = out
        command = ("cluster blurring", "cluster nonblurring", "diagnose")[k]
        if code != 0:
            return f"{command}: exit code {code}", 0
        lines = stdout.splitlines()
        if len(lines) != 1 or not stdout.endswith("\n"):
            return f"{command}: stdout has {len(lines)} lines, not one JSON line", 0
        try:
            json.loads(lines[0])
        except ValueError:
            return f"{command}: stdout line is not JSON", 0
        if k == 2:
            report = json.loads(Path(self.path["diag"]).read_text())
            pairs = report["iterations"] * self.sizes["small"] ** 2
            if not report["converged"] or report["n_clusters"] < 1:
                return f"{command}: run did not converge to any cluster", pairs
            return None, pairs
        result = json.loads(Path(self.path["blur" if k == 0 else "fixed"]).read_text())
        moved = self.sizes["cloud" if k == 0 else "centres"]
        pairs = result["iterations_used"] * moved * self.sizes["cloud"]
        final = np.array(result["final_positions"], dtype=float)
        labels = np.array(result["labels"])
        want = oracles.single_linkage_labels(final, self.MERGE_TOLERANCE)
        centres = np.array(result["centers"], dtype=float)
        problems = []
        if k == 0 and result["n_clusters"] != self.GRID**2:
            problems.append(f"{result['n_clusters']} clusters from {self.GRID**2} blobs")
        if not np.array_equal(labels, want):
            problems.append(
                f"{result['n_clusters']} clusters where single linkage on direct "
                f"differences gives {int(want.max()) + 1}"
            )
        if not np.all(np.isfinite(centres)):
            problems.append(f"{int((~np.isfinite(centres).all(axis=1)).sum())} non-finite centres")
        if min(result["sizes"]) < 1:
            problems.append(f"{sum(s < 1 for s in result['sizes'])} empty clusters")
        return (f"{command}: " + "; ".join(problems) if problems else None), pairs

    def known_defect(self):
        """Relabel the last blurring result at the CLI default tolerance.
        Returns the cluster count ``extract_clusters`` gives, the count
        exact single linkage gives, and the empty and non-finite clusters."""
        final = np.array(
            json.loads(Path(self.path["blur"]).read_text())["final_positions"], dtype=float
        )
        with np.errstate(invalid="ignore"):
            got = self.engine.extract_clusters(
                self.engine.PointSet(final), merge_tolerance=self.DEFAULT_MERGE_TOLERANCE
            )
        want = oracles.single_linkage_labels(final, self.DEFAULT_MERGE_TOLERANCE)
        return {
            "merge_tolerance": self.DEFAULT_MERGE_TOLERANCE,
            "clusters": len(got.sizes),
            "single_linkage": int(want.max()) + 1,
            "empty": int((got.sizes < 1).sum()),
            "nonfinite_centres": int((~np.isfinite(got.centers).all(axis=1)).sum()),
        }


WORKLOADS = {w.name: w for w in (McSmall, StepSweep, ClusterCli)}

"""End-to-end acceptance gate.

Nine criteria covering the closed-form shrinkage calculator, the engine's
contraction guarantees, the oscillating counterexample, oracle equivalence
of the step functions, and the Monte Carlo tables at 2000 replications.
Each test registers a one-line verdict printed after the run.

Slow by design (several minutes total): run via
``pytest -m acceptance`` or the full suite.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_criterion
from oracles import (
    gaussian_profile,
    naive_blurring_step,
    naive_nonblurring_step,
    stepped_profile,
)

from blurshift.cli import main as cli_main
from blurshift.diagnostics import (
    frozen_weight_run,
    hull_trace,
    influence_decay,
    radius_trace,
    run_counterexample,
)
from blurshift.engine import (
    IsolatedCenterError,
    PointSet,
    RunConfig,
    blurring_step,
    extract_clusters,
    majority_mode,
    nonblurring_step,
    run,
)
from blurshift.experiments import (
    ExperimentConfig,
    run_efficiency,
    run_robustness,
)
from blurshift.kernels import GaussianKernel, TruncatedFlatKernel
from blurshift.shrinkage import covariance_step

pytestmark = pytest.mark.acceptance


# --- criterion 1: closed-form std sequences through the CLI ---------------

def test_criterion_1_reference_sequences(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "theory.csv"
    assert cli_main(
        ["theory", "--sigma0", "1", "--tau", "2", "--steps", "3",
         "--output", str(out)]
    ) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    blur = np.array([float(r[1]) for r in rows])
    fixed = np.array([float(r[2]) for r in rows])

    # independent exact arithmetic: variance recursion in rationals
    lam, tau_sq = Fraction(1), Fraction(4)
    exact_blur = [1.0]
    for _ in range(3):
        lam = lam**3 / (lam + tau_sq) ** 2
        exact_blur.append(math.sqrt(float(lam)))
    exact_fixed = [float(Fraction(1, 5) ** s) for s in range(4)]

    ok_blur = np.allclose(blur, exact_blur, rtol=1e-6, atol=0.0)
    ok_fixed = np.allclose(fixed, exact_fixed, rtol=1e-6, atol=0.0)
    # the published roundings these sequences must land on
    ok_digits = (
        abs(blur[1] - 0.2) < 1e-7
        and abs(blur[2] - 0.00198) < 5e-6
        and abs(blur[3] - 1.94e-9) < 5e-12
        and np.allclose(fixed[1:], [0.2, 0.04, 0.008], rtol=1e-6)
    )
    elapsed = time.perf_counter() - start
    passed = ok_blur and ok_fixed and ok_digits and elapsed < 1.0
    record_criterion(
        1, passed,
        f"blurring {blur[1]:.4g}/{blur[2]:.4g}/{blur[3]:.4g}, "
        f"nonblurring {fixed[1]:.4g}/{fixed[2]:.4g}/{fixed[3]:.4g}, "
        f"1e-6 relative vs exact arithmetic, {elapsed:.2f}s",
    )
    assert ok_blur and ok_fixed and ok_digits
    assert elapsed < 1.0


# --- criterion 2: one-step empirical shrinkage at n = 1e5 ------------------

def test_criterion_2_one_step_shrinkage():
    start = time.perf_counter()
    pts = PointSet(np.random.default_rng(1002).standard_normal(100_000))
    stepped = blurring_step(pts, GaussianKernel(tau=2.0))
    std1 = float(stepped.positions.std(ddof=1))
    ok_1d = 0.19 <= std1 <= 0.21

    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    draws = np.random.default_rng(1003).standard_normal((100_000, 2))
    pts2 = PointSet(draws @ np.linalg.cholesky(cov).T)
    stepped2 = blurring_step(pts2, GaussianKernel(tau=1.5))
    emp = np.cov(stepped2.positions.T, ddof=1)
    theory = covariance_step(cov, 1.5)
    frob_rel = float(
        np.linalg.norm(emp - theory) / np.linalg.norm(theory)
    )
    ok_2d = frob_rel < 0.02
    elapsed = time.perf_counter() - start
    passed = ok_1d and ok_2d and elapsed < 30.0
    record_criterion(
        2, passed,
        f"1d std {std1:.4f} in [0.19, 0.21]; 2d Frobenius rel err "
        f"{frob_rel:.4f} < 0.02; {elapsed:.1f}s",
    )
    assert ok_1d and ok_2d
    assert elapsed < 30.0


# --- criterion 3: efficiency table at 2000 replications --------------------

def test_criterion_3_efficiency_table():
    start = time.perf_counter()
    targets = {
        0.5: (0.1210, 0.2126),
        1.0: (0.1043, 0.1239),
        2.0: (0.1008, 0.1025),
    }
    details = []
    ok = True
    for tau, (blur_target, fixed_target) in targets.items():
        rep = run_efficiency(
            ExperimentConfig(kind="efficiency", tau=tau, replications=2000, seed=0)
        )
        ok &= abs(rep.blurring.std - blur_target) <= 0.01
        ok &= abs(rep.nonblurring.std - fixed_target) <= 0.01
        ok &= rep.sample_mean.std <= rep.blurring.std <= rep.nonblurring.std
        details.append(
            f"tau={tau:g}: {rep.sample_mean.std:.4f}<={rep.blurring.std:.4f}"
            f"<={rep.nonblurring.std:.4f} (targets {blur_target}/{fixed_target}"
            f" +-0.01, excl {rep.excluded_replications})"
        )
    elapsed = time.perf_counter() - start
    record_criterion(3, ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok, details


# --- criterion 4: robustness table at 2000 replications --------------------

def test_criterion_4_robustness_table():
    start = time.perf_counter()
    rep_half = run_robustness(
        ExperimentConfig(kind="robustness", tau=0.5, replications=2000, seed=0)
    )
    ok_bias = abs(rep_half.sample_mean.mean - 0.25) <= 0.01
    ok_mode = abs(rep_half.blurring.mean) < 0.02
    ok_std = abs(rep_half.blurring.std - 0.1241) <= 0.01

    rep_two = run_robustness(
        ExperimentConfig(kind="robustness", tau=2.0, replications=2000, seed=0)
    )
    ok_drift = 0.05 <= rep_two.blurring.mean <= 0.13
    elapsed = time.perf_counter() - start
    passed = ok_bias and ok_mode and ok_std and ok_drift
    record_criterion(
        4, passed,
        f"tau=0.5: sample mean {rep_half.sample_mean.mean:.4f} (0.25 +-0.01), "
        f"mode mean {rep_half.blurring.mean:.4f} (<0.02), "
        f"mode std {rep_half.blurring.std:.4f} (0.1241 +-0.01); "
        f"tau=2: mode mean {rep_two.blurring.mean:.4f} in [0.05, 0.13]; "
        f"{elapsed:.0f}s",
    )
    assert passed


# --- criteria 5 and 6: contraction battery over random instances -----------

def _battery_instances():
    rng = np.random.default_rng(20240816)
    instances = []
    for i in range(200):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(2, 51))
        scale = 10.0 ** rng.uniform(-0.5, 1.0)
        x = rng.uniform(-scale, scale, size=(n, p))
        w = 10.0 ** rng.uniform(-0.7, 0.7, size=n)
        diam = 2.0 * scale * math.sqrt(p)
        family = i % 3
        if family == 0:
            kernel = GaussianKernel(tau=diam * rng.uniform(0.6, 1.5))
            kind = "gaussian"
        elif family == 1:
            kernel = GaussianKernel(
                tau=diam * rng.uniform(0.6, 1.5),
                support_radius=diam * rng.uniform(1.2, 3.0),
            )
            kind = "truncated_gaussian"
        else:
            t1 = diam * rng.uniform(0.3, 0.8)
            t2 = t1 + diam * rng.uniform(0.3, 0.8)
            v1 = rng.uniform(0.5, 0.9)
            v2 = v1 * rng.uniform(0.1, 0.9)
            kernel = TruncatedFlatKernel(levels=((t1, v1), (t2, v2)))
            kind = "truncated_flat"
        instances.append((PointSet(x, w), kernel, kind))
    return instances


@pytest.fixture(scope="module")
def battery_results():
    results = []
    for points, kernel, kind in _battery_instances():
        config = RunConfig(kernel=kernel, mode="blurring", trace_level="full")
        final, trace = run(points, config)
        results.append(
            {
                "kind": kind,
                "dimension": points.dimension,
                "n": points.n,
                "trace": trace,
                "final": final,
                "kernel": kernel,
            }
        )
    return results


def test_criterion_5_contraction_battery(battery_results):
    start = time.perf_counter()
    converged = sum(r["trace"].converged for r in battery_results)
    radius_ok = sum(
        radius_trace(r["trace"]).nonincreasing for r in battery_results
    )
    hullable = [r for r in battery_results if r["dimension"] <= 2]
    nested_ok = sum(hull_trace(r["trace"]).nested for r in hullable)
    elapsed = time.perf_counter() - start
    passed = (
        converged == 200
        and radius_ok == 200
        and nested_ok == len(hullable)
    )
    record_criterion(
        5, passed,
        f"{converged}/200 converged within 500 iterations, "
        f"{radius_ok}/200 radius traces nonincreasing, "
        f"{nested_ok}/{len(hullable)} hull traces nested (1d/2d), "
        f"{elapsed:.0f}s checks",
    )
    assert converged == 200
    assert radius_ok == 200
    assert nested_ok == len(hullable)


def test_criterion_6_cluster_count_dichotomy(battery_results):
    start = time.perf_counter()
    positive = [r for r in battery_results if r["kind"] == "gaussian"]
    single = sum(
        extract_clusters(r["final"]).n_clusters == 1 for r in positive
    )
    ok_single = single == len(positive) and positive

    # two blobs farther apart than the kernel support, in 1d and 2d
    ok_blobs = True
    blob_detail = []
    for p in (1, 2):
        rng = np.random.default_rng(600 + p)
        a = rng.normal(0.0, 0.1, size=(30, p))
        a[:, 0] -= 4.0
        b = rng.normal(0.0, 0.1, size=(20, p))
        b[:, 0] += 4.0
        points = PointSet(np.vstack([a, b]))
        kernel = TruncatedFlatKernel(levels=((1.5, 0.6),))
        final, trace = run(points, RunConfig(kernel=kernel, trace_level="full"))
        clusters = extract_clusters(final)
        influence = influence_decay(trace, kernel, clusters)
        ok_blobs &= (
            clusters.n_clusters == 2
            and clusters.sizes.tolist() == [30, 20]
            and influence.max_cross_influence == 0.0
            and not influence.vacuous
        )
        blob_detail.append(
            f"{p}d: K={clusters.n_clusters} sizes={clusters.sizes.tolist()} "
            f"cross={influence.max_cross_influence}"
        )
    elapsed = time.perf_counter() - start
    passed = bool(ok_single and ok_blobs and elapsed < 10.0)
    record_criterion(
        6, passed,
        f"{single}/{len(positive)} strictly-positive-kernel instances gave "
        f"K=1; blobs: {'; '.join(blob_detail)}; {elapsed:.1f}s",
    )
    assert ok_single
    assert ok_blobs
    assert elapsed < 10.0


# --- criterion 7: adaptive oscillation vs frozen weights -------------------

def test_criterion_7_oscillation_and_freezing():
    start = time.perf_counter()
    trace = run_counterexample(deltas=(0.1, 0.1, 0.1), iterations=50)
    x1 = trace.states[:, 0]
    flips_ok = trace.flip_count() == 50
    magnitude_ok = bool(np.all(np.abs(x1) >= 0.05))
    outer_ok = bool(
        np.all(trace.states[:, 1] > 0.5) and np.all(trace.states[:, 2] < -0.5)
    )

    frozen_ok = True
    for snapshot in (0, 2, 4, 23, 49):
        _, frozen = frozen_weight_run(
            deltas=(0.1, 0.1, 0.1),
            weights=trace.weights[snapshot],
            max_iterations=2000,
        )
        frozen_ok &= frozen.converged
    elapsed = time.perf_counter() - start
    passed = flips_ok and magnitude_ok and outer_ok and frozen_ok and elapsed < 1.0
    record_criterion(
        7, passed,
        f"{trace.flip_count()}/50 sign flips, min |x1| = {np.abs(x1).min():.6f}"
        f" >= 0.05, frozen snapshots {{0,2,4,23,49}} all converged, "
        f"{elapsed:.2f}s",
    )
    assert flips_ok and magnitude_ok and outer_ok and frozen_ok
    assert elapsed < 1.0


# --- criterion 8: oracle equivalence of both step functions ----------------

def _oracle_cases():
    rng = np.random.default_rng(88)
    for i in range(100):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 11))
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        x = rng.uniform(-scale, scale, size=(n, p))
        centers = rng.uniform(-scale, scale, size=(m, p))
        w = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        diam = 2.0 * scale * math.sqrt(p)
        family = i % 3
        if family == 0:
            tau = diam * rng.uniform(0.3, 2.0)
            kernel = GaussianKernel(tau=tau)
            profile = gaussian_profile(tau)
        elif family == 1:
            tau = diam * rng.uniform(0.3, 2.0)
            cut = diam * rng.uniform(0.4, 1.5)
            kernel = GaussianKernel(tau=tau, support_radius=cut)
            profile = gaussian_profile(tau, cutoff=cut)
        else:
            t1 = diam * rng.uniform(0.3, 0.8)
            t2 = t1 + diam * rng.uniform(0.3, 0.8)
            levels = ((t1, rng.uniform(0.5, 0.9)), (t2, rng.uniform(0.05, 0.4)))
            kernel = TruncatedFlatKernel(levels=levels)
            profile = stepped_profile(levels)
        yield x, w, centers, kernel, profile


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for x, w, centers, kernel, profile in _oracle_cases():
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(centers).max()))
        tol = 1e-12 * scale

        expected = np.array(naive_blurring_step(x.tolist(), w.tolist(), profile))
        got = blurring_step(PointSet(x, w), kernel).positions
        assert np.all(np.abs(got - expected) <= tol), "blurring step diverged"

        oracle_rows = naive_nonblurring_step(
            centers.tolist(), x.tolist(), w.tolist(), profile
        )
        if any(row is None for row in oracle_rows):
            with pytest.raises(IsolatedCenterError):
                nonblurring_step(centers, PointSet(x, w), kernel)
        else:
            got_centers = nonblurring_step(centers, PointSet(x, w), kernel)
            assert np.all(np.abs(got_centers - np.array(oracle_rows)) <= tol)
        checked += 1
    elapsed = time.perf_counter() - start
    passed = checked == 100 and elapsed < 5.0
    record_criterion(
        8, passed,
        f"{checked}/100 instances matched the double-loop reference within "
        f"1e-12 relative (both step functions), {elapsed:.1f}s",
    )
    assert checked == 100
    assert elapsed < 5.0


# --- criterion 9: tightening of the limit point with sample size -----------

def test_criterion_9_consistency_trend():
    start = time.perf_counter()
    kernel = GaussianKernel(tau=2.0)
    stats = {}
    ok = True
    for n in (100, 400, 1600):
        values = []
        for rep in range(500):
            rng = np.random.default_rng([9, n, rep])
            points = PointSet(rng.standard_normal(n))
            final, trace = run(
                points, RunConfig(kernel=kernel, trace_level="none")
            )
            assert trace.converged
            values.append(float(majority_mode(extract_clusters(final))[0]))
        values = np.array(values)
        stats[n] = (float(values.mean()), float(values.std(ddof=1)))
        ok &= abs(stats[n][0]) < 0.02
    stds = [stats[n][1] for n in (100, 400, 1600)]
    ok &= stds[0] > stds[1] > stds[2]
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"n={n}: mean {stats[n][0]:+.4f} std {stats[n][1]:.4f}"
        for n in (100, 400, 1600)
    )
    record_criterion(
        9, ok, detail + f"; std strictly decreasing, |mean| < 0.02; {elapsed:.0f}s"
    )
    assert ok, stats

import math

import numpy as np
import pytest

from blurshift.diagnostics import (
    CounterexampleBreakdownError,
    FlipForcingSchedule,
    UnsupportedDimensionError,
    directional_containment,
    frozen_weight_run,
    hull_trace,
    influence_decay,
    oscillation_kernel,
    radius_trace,
    run_counterexample,
)
from blurshift.diagnostics import _hull_2d, _point_in_hull_2d
from blurshift.engine import (
    ClusterResult,
    IterationTrace,
    PointSet,
    RunConfig,
    TraceRecord,
    extract_clusters,
    run,
)
from blurshift.kernels import GaussianKernel, TabulatedKernel, TruncatedFlatKernel

from oracles import as_tuples, naive_max_cross_influence


def full_run(x, kernel, weights=None, max_iterations=500):
    ps = PointSet(np.asarray(x, dtype=float), weights)
    cfg = RunConfig(kernel=kernel, trace_level="full", max_iterations=max_iterations)
    return run(ps, cfg)


def synthetic_trace(arrays):
    records = []
    for t, x in enumerate(arrays):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        diffs = x[:, None, :] - x[None, :, :]
        radius = float(np.sqrt((diffs**2).sum(-1)).max())
        records.append(
            TraceRecord(
                iteration=t,
                max_displacement=math.nan if t == 0 else 1.0,
                radius=radius,
                stds=x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1]),
                positions=x,
            )
        )
    return IterationTrace(
        records=records, trace_level="full", converged=False, iterations=len(arrays) - 1
    )


class TestHullTrace:
    def test_symmetric_triple_contracts(self):
        final, trace = full_run([-1.0, 0.0, 1.0], GaussianKernel(1.0))
        ht = hull_trace(trace)
        assert ht.dimension == 1
        assert ht.nested and ht.first_violation is None
        widths = np.array([h[1] - h[0] for h in ht.hulls])
        assert np.all(np.diff(widths[:5]) < 0)
        # symmetry keeps the contraction centered
        mids = np.array([0.5 * (h[0] + h[1]) for h in ht.hulls])
        assert np.allclose(mids, 0.0, atol=1e-12)

    def test_single_point_degenerate(self):
        final, trace = full_run([2.0], GaussianKernel(1.0), max_iterations=3)
        ht = hull_trace(trace)
        assert ht.nested
        assert all(h[0] == h[1] == 2.0 for h in ht.hulls)

    def test_unit_square_nested(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        final, trace = full_run(corners, GaussianKernel(1.0))
        ht = hull_trace(trace)
        assert ht.dimension == 2
        assert ht.nested and ht.first_violation is None
        first = ht.hulls[0]
        assert first.shape == (4, 2)
        # counterclockwise: positive signed area
        area = 0.0
        for i in range(4):
            a, b = first[i], first[(i + 1) % 4]
            area += a[0] * b[1] - b[0] * a[1]
        assert area > 0

    def test_violation_detected(self):
        ht = hull_trace(
            synthetic_trace([[0.0, 1.0], [0.2, 0.8], [-0.5, 0.7]])
        )
        assert not ht.nested
        assert ht.first_violation == 2

    def test_high_dimension_rejected(self):
        rng = np.random.default_rng(0)
        final, trace = full_run(rng.normal(size=(10, 3)), GaussianKernel(2.0))
        with pytest.raises(UnsupportedDimensionError) as err:
            hull_trace(trace)
        assert err.value.dimension == 3
        assert "radius_trace" in str(err.value)

    def test_needs_full_trace(self):
        ps = PointSet(np.array([0.0, 1.0]))
        _, trace = run(ps, RunConfig(kernel=GaussianKernel(1.0)))
        with pytest.raises(ValueError):
            hull_trace(trace)


class TestMonotoneChain:
    def test_contains_every_input_point(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(3, 40), 2))
            hull = _hull_2d(pts)
            scale = max(1.0, np.abs(pts).max())
            assert all(_point_in_hull_2d(q, hull, 1e-9 * scale) for q in pts)

    def test_strictly_convex_vertices(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 2))
        hull = _hull_2d(pts)
        k = hull.shape[0]
        assert k >= 3
        for i in range(k):
            o, a, b = hull[i], hull[(i + 1) % k], hull[(i + 2) % k]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0

    def test_collinear_cloud_becomes_segment(self):
        t = np.linspace(0, 1, 7)
        pts = np.column_stack([t, 2 * t])
        hull = _hull_2d(pts)
        assert hull.shape == (2, 2)
        assert _point_in_hull_2d(np.array([0.5, 1.0]), hull, 1e-9)
        assert not _point_in_hull_2d(np.array([0.5, 1.2]), hull, 1e-9)

    def test_duplicates_collapse(self):
        pts = np.array([[0.0, 0.0]] * 5)
        hull = _hull_2d(pts)
        assert hull.shape == (1, 2)
        assert _point_in_hull_2d(np.array([0.0, 0.0]), hull, 1e-12)
        assert not _point_in_hull_2d(np.array([0.1, 0.0]), hull, 1e-12)


class TestRadiusTrace:
    def test_engine_run_nonincreasing(self):
        rng = np.random.default_rng(3)
        final, trace = full_run(rng.normal(size=(30, 2)), GaussianKernel(1.0))
        rep = radius_trace(trace)
        assert rep.nonincreasing and rep.first_violation is None
        assert rep.radii[0] >= rep.radii[-1]

    def test_summary_trace_suffices(self):
        ps = PointSet(np.random.default_rng(4).normal(size=(20, 1)))
        _, trace = run(ps, RunConfig(kernel=GaussianKernel(1.0)))
        rep = radius_trace(trace)
        assert rep.nonincreasing

    def test_coincident_cloud_constant_zero(self):
        final, trace = full_run(np.zeros((4, 2)), GaussianKernel(1.0), max_iterations=3)
        rep = radius_trace(trace)
        assert np.all(rep.radii == 0.0)
        assert rep.nonincreasing

    def test_growth_detected(self):
        rep = radius_trace(synthetic_trace([[0.0, 1.0], [0.0, 2.0]]))
        assert not rep.nonincreasing
        assert rep.first_violation == 1


class TestDirectionalContainment:
    def test_agrees_with_exact_hull_on_runs(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            final, trace = full_run(rng.normal(size=(25, 2)), GaussianKernel(1.5))
            exact = hull_trace(trace).nested
            proj = directional_containment(trace).contained
            assert exact == proj

    def test_detects_growth(self):
        rep = directional_containment(synthetic_trace([[0.0, 1.0], [0.0, 2.0]]))
        assert not rep.contained
        assert rep.first_violation == 1
        assert rep.max_overshoot > 0.5

    def test_high_dimension_supported(self):
        rng = np.random.default_rng(6)
        final, trace = full_run(rng.normal(size=(15, 5)), GaussianKernel(2.0))
        rep = directional_containment(trace, n_directions=12, seed=3)
        assert rep.contained
        assert rep.n_directions == 12

    def test_direction_count_validated(self):
        final, trace = full_run([0.0, 1.0], GaussianKernel(1.0), max_iterations=2)
        with pytest.raises(ValueError):
            directional_containment(trace, n_directions=0)


class TestInfluenceDecay:
    def separated_run(self):
        x = np.concatenate([np.linspace(-0.1, 0.1, 8), np.linspace(5.9, 6.1, 5)])
        kernel = TruncatedFlatKernel(levels=((1.0, 0.5),))
        final, trace = full_run(x, kernel)
        result = extract_clusters(final)
        return trace, kernel, result

    def test_separated_blobs_zero_influence(self):
        trace, kernel, result = self.separated_run()
        assert result.n_clusters == 2
        assert result.sizes.tolist() == [8, 5]
        rep = influence_decay(trace, kernel, result)
        assert not rep.vacuous
        assert rep.max_cross_influence == 0.0
        assert rep.pair is not None

    def test_positive_influence_reported(self):
        trace, kernel, result = self.separated_run()
        # same final positions, wider kernel: cross influence is the gaussian
        # of the gap, and the reported pair straddles the gap
        wide = GaussianKernel(3.0)
        rep = influence_decay(trace, wide, result)
        assert rep.max_cross_influence > 0
        i, j = rep.pair
        assert result.labels[i] != result.labels[j]
        final = trace.records[-1].positions
        gap = np.linalg.norm(final[i] - final[j])
        assert rep.max_cross_influence == pytest.approx(wide.evaluate(gap))

    def test_single_cluster_vacuous(self):
        rng = np.random.default_rng(7)
        final, trace = full_run(rng.normal(size=(12, 1)), GaussianKernel(2.0))
        result = extract_clusters(final)
        assert result.n_clusters == 1
        rep = influence_decay(trace, GaussianKernel(2.0), result)
        assert rep.vacuous
        assert rep.max_cross_influence == 0.0
        assert rep.pair is None

    def test_length_mismatch_rejected(self):
        trace, kernel, result = self.separated_run()
        bad = extract_clusters(PointSet(np.zeros((3, 1))), merge_tolerance=1.0)
        with pytest.raises(ValueError):
            influence_decay(trace, kernel, bad)

    KERNELS = {
        "gaussian": GaussianKernel(0.8),
        "truncated": GaussianKernel(0.8, support_radius=1.5),
        "flat": TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25))),
        # rises again past distance 1, so the nearest pair is not the answer
        "tabulated": TabulatedKernel(
            knots=((0.0, 1.0), (1.0, 0.1), (2.0, 0.8), (3.0, 0.0))
        ),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, kernel, seed):
        # integer grids give exact distance ties, which the flat kernel
        # turns into value ties; both label kinds leave many pairs tied
        rng = np.random.default_rng([seed, 71])
        n, p = (40, 50, 60, 300)[seed], 1 + seed % 3
        if seed % 2:
            x = rng.integers(0, 4, size=(n, p)) * 0.75 + 40.0
        else:
            x = rng.normal(0.0, 1.5, size=(n, p)) + 40.0
        if seed < 2:
            labels = rng.integers(0, 3, size=n)
        else:
            labels = extract_clusters(PointSet(x), merge_tolerance=0.6).labels
        result = ClusterResult(
            labels=labels,
            centers=np.zeros((int(labels.max()) + 1, p)),
            sizes=np.bincount(labels),
        )
        assert result.n_clusters >= 2
        rep = influence_decay(synthetic_trace([x]), self.KERNELS[kernel], result)
        want = naive_max_cross_influence(as_tuples(x), labels.tolist(), self.KERNELS[kernel])
        assert (rep.max_cross_influence, rep.pair) == want

    def test_pair_found_past_the_first_row_block(self):
        x = np.arange(300.0)[:, None] * 3.0
        x[299] = x[298] + 0.5
        labels = np.arange(300) % 2
        result = ClusterResult(
            labels=labels,
            centers=np.zeros((2, 1)),
            sizes=np.bincount(labels),
        )
        kernel = GaussianKernel(0.8)
        rep = influence_decay(synthetic_trace([x]), kernel, result)
        assert rep.pair == (298, 299)
        want = naive_max_cross_influence(as_tuples(x), labels.tolist(), kernel)
        assert (rep.max_cross_influence, rep.pair) == want


class TestOscillationKernel:
    def test_profile(self):
        k = oscillation_kernel()
        got = k.evaluate(np.array([0.0, 0.5, 1.0, 1.5]))
        assert got.tolist() == [1.0, 0.5, 0.5, 0.0]
        assert k.support_radius == 1.0


class TestCounterexample:
    def test_default_run_alternates_fifty_times(self):
        tr = run_counterexample((0.1, 0.1, 0.1), iterations=50)
        assert tr.states.shape == (51, 3)
        assert tr.weights.shape == (50, 3)
        assert tr.flip_count() == 50
        x1 = tr.states[:, 0]
        assert np.all(np.abs(x1[1:]) >= tr.delta_min)
        # outer points never enter the central band
        assert np.all(tr.states[:, 1] > 0.5)
        assert np.all(tr.states[:, 2] < -0.5)
        # first weight pinned
        assert np.all(tr.weights[:, 0] == 1.0)
        assert np.all(np.isfinite(tr.weights)) and np.all(tr.weights > 0)

    def test_alternation_means_failed_stopping(self):
        tr = run_counterexample((0.1, 0.1, 0.1), iterations=30)
        moves = np.abs(np.diff(tr.states[:, 0]))
        assert np.all(moves >= 2 * tr.delta_min * 0.99)

    def test_uneven_deltas_outer_points_converge(self):
        tr = run_counterexample((0.2, 0.05, 0.05), iterations=50)
        assert tr.flip_count() == 50
        x2, x3 = tr.states[:, 1], tr.states[:, 2]
        assert abs(x2[-1] - x2[-2]) < 1e-10
        assert abs(x3[-1] - x3[-2]) < 1e-10

    @pytest.mark.parametrize(
        "deltas", [(0.0, 0.1, 0.1), (0.25, 0.1, 0.1), (0.1, -0.1, 0.1)]
    )
    def test_delta_validation(self, deltas):
        with pytest.raises(ValueError):
            run_counterexample(deltas)

    def test_other_argument_validation(self):
        with pytest.raises(ValueError):
            run_counterexample(iterations=0)
        with pytest.raises(ValueError):
            run_counterexample(delta_min=0.3)

    def test_schedule_produces_positive_weights(self):
        sched = FlipForcingSchedule()
        w = sched(0, np.array([0.1, 0.6, -0.6]))
        assert w.shape == (3,)
        assert w[0] == 1.0 and np.all(w > 0)

    def test_schedule_breakdown_is_reported(self):
        sched = FlipForcingSchedule(max_doublings=0)
        with pytest.raises(CounterexampleBreakdownError) as err:
            sched(3, np.array([0.1, 0.5 + 1e-12, -0.6]))
        assert err.value.iteration == 3


class TestFrozenWeights:
    def test_unit_weights_converge(self):
        final, trace = frozen_weight_run((0.1, 0.1, 0.1))
        assert trace.converged
        pos = final.positions.ravel()
        assert pos.max() - pos.min() < 1e-8

    def test_adaptive_snapshots_converge_once_frozen(self):
        tr = run_counterexample((0.1, 0.1, 0.1), iterations=50)
        for t in (0, 2, 4, 49):
            final, trace = frozen_weight_run(
                (0.1, 0.1, 0.1), weights=tr.weights[t], max_iterations=2000
            )
            assert trace.converged, f"snapshot {t} failed to converge"
            x1 = np.array([p[0, 0] for p in trace.positions_list()])
            flips = np.sum(np.sign(x1[1:]) * np.sign(x1[:-1]) < 0)
            assert flips <= 1

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            frozen_weight_run((0.3, 0.1, 0.1))

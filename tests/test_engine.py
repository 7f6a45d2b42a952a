import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurshift import engine
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
from blurshift.kernels import GaussianKernel, TabulatedKernel, TruncatedFlatKernel

from oracles import (
    as_tuples,
    dense_blurring_step,
    dense_nonblurring_step,
    gaussian_profile,
    influence_sq,
    naive_blurring_step,
    naive_cluster_centres,
    naive_diameter,
    naive_nonblurring_step,
    single_linkage_labels,
    stepped_profile,
    tabulated_profile,
)

# engine output vs scalar-loop reference: identical math, different
# accumulation order, so exact up to rounding scaled by coordinate size
ORACLE_RTOL = 1e-12


def assert_matches_oracle(got, want_tuples, inputs_scale):
    want = np.array(want_tuples)
    atol = ORACLE_RTOL * max(1.0, float(inputs_scale))
    np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL, atol=atol)


# kernel object paired with its independent scalar reference
KERNEL_CASES = [
    (GaussianKernel(tau=0.8), gaussian_profile(0.8)),
    (GaussianKernel(tau=2.0), gaussian_profile(2.0)),
    (GaussianKernel(tau=1.0, support_radius=1.5), gaussian_profile(1.0, cutoff=1.5)),
    (
        TruncatedFlatKernel(levels=((0.0, 1.0), (1.0, 0.5))),
        stepped_profile(((0.0, 1.0), (1.0, 0.5))),
    ),
    (
        TruncatedFlatKernel(levels=((0.7, 0.9), (1.8, 0.2))),
        stepped_profile(((0.7, 0.9), (1.8, 0.2))),
    ),
    (
        TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.5), (2.5, 0.1))),
        tabulated_profile(((0.0, 1.0), (1.0, 0.5), (2.5, 0.1))),
    ),
]


class TestPointSet:
    def test_vector_promoted_to_column(self):
        ps = PointSet(np.array([1.0, 2.0, 3.0]))
        assert ps.positions.shape == (3, 1)
        assert ps.dimension == 1 and ps.n == 3

    def test_default_weights_are_ones(self):
        ps = PointSet(np.zeros((4, 2)))
        assert np.array_equal(ps.weights, np.ones(4))

    @pytest.mark.parametrize(
        "pos",
        [np.empty((0, 2)), np.array([[np.nan]]), np.array([[np.inf, 0.0]])],
    )
    def test_bad_positions(self, pos):
        with pytest.raises(ValueError):
            PointSet(pos)

    @pytest.mark.parametrize("w", [[0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [1.0]])
    def test_bad_weights(self, w):
        with pytest.raises(ValueError):
            PointSet(np.zeros((2, 1)), np.array(w, dtype=float))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(kernel=GaussianKernel(1.0))
        assert cfg.mode == "blurring"
        assert cfg.stop_displacement == 1e-10
        assert cfg.max_iterations == 500
        assert cfg.trace_level == "summary"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "smoothing"},
            {"trace_level": "verbose"},
            {"stop_displacement": 0.0},
            {"stop_displacement": math.inf},
            {"stop_displacement": math.nan},
            {"max_iterations": 0},
        ],
    )
    def test_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(kernel=GaussianKernel(1.0), **kwargs)

    def test_kernel_required_to_be_kernel(self):
        with pytest.raises(ValueError):
            RunConfig(kernel=lambda d: 1.0)


class TestFrozenValues:
    def test_two_point_blurring(self):
        # x = {0, 1}, tau = 2: each point pulls the other with weight e^{-1/8}
        out = blurring_step(PointSet(np.array([0.0, 1.0])), GaussianKernel(2.0))
        np.testing.assert_allclose(
            out.positions.ravel(),
            [0.46879062662624377, 0.5312093733737563],
            rtol=1e-15,
        )

    def test_three_point_weighted_blurring(self):
        # x = {0, 1, 3}, w = {1, 2, 1}, tau = 1
        out = blurring_step(
            PointSet(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 1.0])),
            GaussianKernel(1.0),
        )
        np.testing.assert_allclose(
            out.positions.ravel(),
            [0.5603834832675839, 0.8775067416760189, 2.551663843655747],
            rtol=1e-14,
        )

    def test_nonblurring_center(self):
        got = nonblurring_step(
            np.array([0.25]), PointSet(np.array([0.0, 1.0])), GaussianKernel(2.0)
        )
        np.testing.assert_allclose(got.ravel(), [0.48438008427698437], rtol=1e-15)


class TestAgainstOracle:
    @pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_blurring_step(self, case, seed):
        kernel, ref = KERNEL_CASES[case]
        rng = np.random.default_rng([seed, case])
        n = int(rng.integers(2, 40))
        p = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.5, size=(n, p))
        w = rng.uniform(0.2, 3.0, size=n)
        got = blurring_step(PointSet(x, w), kernel).positions
        want = naive_blurring_step(as_tuples(x), list(w), ref)
        assert_matches_oracle(got, want, np.abs(x).max())

    @pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_nonblurring_step(self, case, seed):
        kernel, ref = KERNEL_CASES[case]
        rng = np.random.default_rng([seed, case])
        n = int(rng.integers(2, 40))
        p = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.5, size=(n, p))
        w = rng.uniform(0.2, 3.0, size=n)
        centers = rng.normal(0.0, 2.0, size=(int(rng.integers(1, 8)), p))
        want = naive_nonblurring_step(as_tuples(centers), as_tuples(x), list(w), ref)
        data = PointSet(x, w)
        if any(v is None for v in want):
            with pytest.raises(IsolatedCenterError):
                nonblurring_step(centers, data, kernel)
            return
        got = nonblurring_step(centers, data, kernel)
        assert_matches_oracle(got, want, max(np.abs(x).max(), np.abs(centers).max()))

    def test_blurring_equals_self_nonblurring(self):
        # one blurring step is one nonblurring step of the cloud against itself
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 2))
        w = rng.uniform(0.5, 2.0, size=30)
        ps = PointSet(x, w)
        k = GaussianKernel(1.2)
        a = blurring_step(ps, k).positions
        b = nonblurring_step(x, ps, k)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


# row counts either side of the 256-row and 512-column tile edges
TILE_EDGES = (255, 256, 257, 511, 512, 513, 769)


class TestLargeCloudPaths:
    """The tiled reducer must agree with the dense reference."""

    def test_tiled_gaussian_matches_dense(self):
        rng = np.random.default_rng(42)
        # with 256-row blocks, 3001 ends on a partial block of an even count,
        # 3073 on a one-row block of an odd count, so the two stripes get
        # unequal block counts
        for n in (3200, 3001, 3073) + TILE_EDGES:
            for p in (1, 2):
                x = rng.normal(0.0, 1.0, size=(n, p))
                w = rng.uniform(0.5, 2.0, size=n)
                got = blurring_step(PointSet(x, w), GaussianKernel(0.9)).positions
                want = dense_blurring_step(x, w, GaussianKernel(0.9))
                np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_tiled_gaussian_thread_count_independent(self, monkeypatch):
        # thread every step, so that both worker counts run the pool
        monkeypatch.setattr(engine, "_THREADED_PAIRS", 0)
        rng = np.random.default_rng(47)
        n = 3201
        kernels = (GaussianKernel(0.9), GaussianKernel(0.9, support_radius=2.7))
        for p in (1, 2):
            x = rng.normal(0.0, 1.0, size=(n, p))
            pts = PointSet(x, rng.uniform(0.5, 2.0, n))
            centers = x[:769] + 0.1
            for kernel in kernels:
                steps = []
                for workers in (1, 2):
                    monkeypatch.setattr(engine, "_stripe_workers", lambda k=workers: k)
                    steps.append(
                        (
                            blurring_step(pts, kernel).positions,
                            nonblurring_step(centers, pts, kernel),
                        )
                    )
                for a, b in zip(*steps):
                    np.testing.assert_array_equal(a, b)

    def test_steps_below_threaded_pairs_start_no_threads(self, monkeypatch):
        def no_threads():
            raise AssertionError("a step below _THREADED_PAIRS asked for threads")

        monkeypatch.setattr(engine, "_stripe_workers", no_threads)
        rng = np.random.default_rng(48)
        x = rng.normal(0.0, 1.0, size=(3201, 2))
        pts = PointSet(x)
        assert 3201 * 3201 < engine._THREADED_PAIRS
        for kernel in (GaussianKernel(0.9), GaussianKernel(0.9, support_radius=2.7)):
            blurring_step(pts, kernel)
            nonblurring_step(x[:769], pts, kernel)

    def test_wide_cloud_falls_back_and_matches_dense(self):
        # spread large enough that the factored exponentials would overflow
        rng = np.random.default_rng(43)
        x = rng.normal(0.0, 300.0, size=(3200, 1))
        w = np.ones(3200)
        k = GaussianKernel(0.5)
        got = blurring_step(PointSet(x, w), k).positions
        want = dense_blurring_step(x, w, k)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-10)

    def test_tiled_translation_consistency(self):
        rng = np.random.default_rng(44)
        x = rng.normal(0.0, 1.0, size=(3100, 1))
        k = GaussianKernel(0.9)
        base = blurring_step(PointSet(x), k).positions
        moved = blurring_step(PointSet(x + 1e6), k).positions
        np.testing.assert_allclose(moved - 1e6, base, rtol=0, atol=1e-8)

    def test_tiled_truncated_matches_dense(self):
        rng = np.random.default_rng(45)
        k = GaussianKernel(0.8, support_radius=1.2)
        for n in (3100,) + TILE_EDGES:
            x = rng.normal(0.0, 1.0, size=(n, 2))
            w = rng.uniform(0.5, 2.0, size=n)
            got = blurring_step(PointSet(x, w), k).positions
            want = dense_blurring_step(x, w, k)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_tiled_nonblurring_matches_dense(self):
        rng = np.random.default_rng(46)
        # (data points, centers, dimension): centers never fill the last
        # 256-row block, and 1000 data points end on a partial column tile
        for n, m, p in ((20000, 600, 1), (1000, 769, 2)):
            x = rng.normal(0.0, 1.0, size=(n, p))
            data = PointSet(x)
            centers = rng.normal(0.0, 1.0, size=(m, p))
            k = GaussianKernel(1.1)
            got = nonblurring_step(centers, data, k)
            want = dense_nonblurring_step(centers, x, data.weights, k)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)


def tiles_seen(kernel, step):
    """(squared distances, influences) of every tile that the reducer hands
    to ``kernel._fill_sq`` while ``step()`` runs."""
    seen = []
    fill = kernel._fill_sq

    def spy(z):
        sq = z.copy()
        fill(z)
        seen.append((sq, z.copy()))

    # kernels are frozen dataclasses: shadow the method on this instance only
    object.__setattr__(kernel, "_fill_sq", spy)
    try:
        step()
    finally:
        object.__delattr__(kernel, "_fill_sq")
    return seen


class TestTileInfluence:
    """Each tile of influences in the reducer is ``evaluate_sq`` of its
    squared distances, and the family's definition of them, bit for bit."""

    KERNELS = (
        GaussianKernel(0.7),
        GaussianKernel(0.7, support_radius=2.1),
        TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25))),
        TruncatedFlatKernel(levels=((0.0, 1.0), (1.5, 0.5), (3.0, 0.2))),
        # cut below the last threshold, inside the (1, 2] level
        TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25), (3.0, 0.1)), support_radius=1.5),
        TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.6), (2.5, 0.1))),
        TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.6), (2.5, 0.1)), support_radius=1.7),
    )

    def clouds(self):
        rng = np.random.default_rng(61)
        narrow = rng.normal(0.0, 1.0, size=(700, 2)) + 40.0
        # near-coincident points, whose expanded squared distances can
        # round below 0 before the reducer's clamp
        narrow[500:540] = narrow[7] + rng.normal(0.0, 1e-9, size=(40, 2))
        # integer coordinates about an exact mean keep the expanded form
        # exact, so the duplicates give squared distances of exactly 0
        grid = rng.integers(-6, 7, size=(512, 2)).astype(float)
        grid -= grid.mean(axis=0)
        wide = rng.uniform(0.0, 100.0, size=(700, 2))
        line = rng.normal(0.0, 1.0, size=(700, 1))
        line[400:420] = line[3]
        return {"narrow": narrow, "grid": grid, "wide": wide, "line": line}

    def assert_tiles_match(self, kernel, x, symmetric):
        w = np.random.default_rng(62).uniform(0.5, 2.0, x.shape[0])
        pts = PointSet(x, w)
        if symmetric:
            seen = tiles_seen(kernel, lambda: blurring_step(pts, kernel))
        else:
            seen = tiles_seen(kernel, lambda: nonblurring_step(x[::2] + 0.01, pts, kernel))
        assert seen
        for sq, influence in seen:
            assert sq.min() >= 0.0
            assert influence.tobytes() == kernel.evaluate_sq(sq).tobytes()
            assert influence.tobytes() == influence_sq(kernel, sq).tobytes()
        return np.concatenate([sq.ravel() for sq, _ in seen])

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("cloud", ["narrow", "grid", "wide", "line"])
    def test_tiles_equal_evaluate_sq(self, cloud, symmetric):
        x = self.clouds()[cloud]
        for kernel in self.KERNELS:
            if cloud != "wide" and kernel == GaussianKernel(0.7):
                continue  # the factorised tile, which never calls the kernel
            sq = self.assert_tiles_match(kernel, x, symmetric)
            r = kernel.support_radius
            if cloud != "line" and math.isfinite(r):
                # tiles straddle the cutoff
                assert (sq <= r * r).any() and (sq > r * r).any()
            if cloud in ("grid", "line") and symmetric:
                # more exact zeros than the pinned self pairs: coincident
                # points off the diagonal
                assert np.count_nonzero(sq == 0.0) > x.shape[0]

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_one_dimensional_tile_is_the_elementwise_product(self, symmetric):
        # the reducer pads p=1 to two columns, the second all zeros, so the
        # tile is one matmul; r c + 0 0 must round exactly as r c alone
        rng = np.random.default_rng(65)
        kernels = (
            GaussianKernel(0.7, support_radius=2.1),
            TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25))),
            TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.6), (2.5, 0.1))),
        )
        for n, offset in ((2, 0.0), (97, 0.0), (256, 0.0), (180, 1e4), (256, -37.5)):
            x = rng.normal(offset, 3.0, size=(n, 1))
            x[n // 2 :: 7] = x[1]
            targets = x if symmetric else x[::2] + 0.01
            xc = x - x.mean(axis=0)
            tc = targets - x.mean(axis=0)
            want = ((tc * (-2.0 * xc).T) + tc * tc) + (xc * xc).T
            np.maximum(want, 0.0, out=want)
            if symmetric:
                np.fill_diagonal(want, 0.0)
            for kernel in kernels:
                if symmetric:
                    seen = tiles_seen(kernel, lambda: blurring_step(PointSet(x), kernel))
                else:
                    seen = tiles_seen(
                        kernel, lambda: nonblurring_step(targets, PointSet(x), kernel)
                    )
                assert len(seen) == 1
                assert seen[0][0].tobytes() == want.tobytes()


class TestIsolation:
    def test_isolated_center_raises_with_index(self):
        data = PointSet(np.array([0.0, 0.5]))
        k = TruncatedFlatKernel(levels=((1.0, 0.5),))
        with pytest.raises(IsolatedCenterError) as err:
            nonblurring_step(np.array([0.2, 7.0]), data, k)
        assert err.value.center_index == 1

    def test_blurring_never_isolates(self):
        # self influence is exactly 1, so any cloud survives a tight cutoff
        x = np.array([0.0, 100.0, 200.0])
        k = TruncatedFlatKernel(levels=((1.0, 0.5),))
        out = blurring_step(PointSet(x), k)
        np.testing.assert_allclose(out.positions.ravel(), x)

    def test_steps_report_overflowing_spread(self):
        # the second cloud's squared distances from its mean stay finite,
        # but its pairwise squared distance, four times as large, does not
        for wide in (np.array([0.0, 1e160, 3e160]), np.array([0.0, 1.5e154])):
            with pytest.raises(ValueError, match="overflow"):
                blurring_step(PointSet(wide), GaussianKernel(1.0))
            with pytest.raises(ValueError, match="overflow"):
                nonblurring_step(wide, PointSet(wide), GaussianKernel(1.0))

    def test_widest_finite_pair_runs(self):
        # pairwise squared distance 1e308, just inside the float range
        ps = PointSet(np.array([0.0, 1e154]))
        final, trace = run(ps, RunConfig(kernel=GaussianKernel(1.0)))
        assert np.all(np.isfinite(final.positions))
        assert trace.radii[0] == 1e154

    def test_dimension_mismatch(self):
        data = PointSet(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            nonblurring_step(np.zeros((2, 3)), data, GaussianKernel(1.0))


class TestRun:
    def test_blurring_rejects_data(self):
        ps = PointSet(np.array([0.0, 1.0]))
        cfg = RunConfig(kernel=GaussianKernel(1.0))
        with pytest.raises(ValueError):
            run(ps, cfg, data=ps)

    def test_trace_structure(self):
        rng = np.random.default_rng(5)
        ps = PointSet(rng.normal(size=(25, 2)))
        final, trace = run(ps, RunConfig(kernel=GaussianKernel(2.0)))
        assert trace.converged
        assert trace.iterations == len(trace.radii) - 1
        assert trace.stds.shape == (len(trace.radii), 2)
        assert trace.positions is None
        assert math.isnan(trace.max_displacements[0])
        np.testing.assert_allclose(trace.stds[0], ps.positions.std(axis=0, ddof=1))
        disp = trace.max_displacements
        # a fully collapsed cloud reaches displacement exactly 0
        assert np.all(disp[1:] >= 0)
        assert disp[-1] < 1e-10
        assert final.positions.shape == (25, 2)

    def test_radius_contracts_under_gaussian_blurring(self):
        rng = np.random.default_rng(6)
        ps = PointSet(rng.normal(size=(40, 1)))
        _, trace = run(ps, RunConfig(kernel=GaussianKernel(1.0)))
        radii = trace.radii
        assert np.all(np.diff(radii) <= radii[:-1] * 1e-12 + 1e-15)

    def test_trace_level_none_records_nothing(self):
        ps = PointSet(np.array([0.0, 1.0]))
        final, trace = run(ps, RunConfig(kernel=GaussianKernel(2.0), trace_level="none"))
        assert trace.max_displacements.shape == trace.radii.shape == (0,)
        assert trace.stds.shape == (0, 1)
        assert trace.positions is None
        assert trace.converged and trace.iterations > 0

    def test_trace_level_full_keeps_positions(self):
        ps = PointSet(np.array([0.0, 1.0]))
        _, trace = run(ps, RunConfig(kernel=GaussianKernel(2.0), trace_level="full"))
        plist = trace.positions
        assert len(plist) == trace.iterations + 1
        np.testing.assert_array_equal(plist[0], [[0.0], [1.0]])

    def test_budget_exhaustion_reported_not_raised(self):
        rng = np.random.default_rng(7)
        ps = PointSet(rng.normal(size=(30, 1)))
        final, trace = run(
            ps, RunConfig(kernel=GaussianKernel(0.3), max_iterations=2)
        )
        assert not trace.converged
        assert trace.iterations == 2

    def test_nonblurring_two_point_fixed_point(self):
        ps = PointSet(np.array([0.0, 1.0]))
        final, trace = run(
            ps, RunConfig(kernel=GaussianKernel(2.0), mode="nonblurring")
        )
        assert trace.converged
        np.testing.assert_allclose(final.positions.ravel(), [0.5, 0.5], atol=1e-8)

    @pytest.mark.parametrize("mode", ["blurring", "nonblurring"])
    def test_run_matches_hand_iterated_steps(self, mode):
        rng = np.random.default_rng(63)
        x = np.vstack([rng.normal(0.0, 1.0, (150, 2)), rng.normal(4.0, 1.0, (150, 2))])
        w = rng.uniform(0.5, 2.0, 300)
        data = PointSet(x, w)
        for kernel in (GaussianKernel(0.6), GaussianKernel(0.6, support_radius=1.8)):
            cfg = RunConfig(kernel=kernel, mode=mode, max_iterations=40)
            final, trace = run(data, cfg)
            cur, disps, converged = x, [math.nan], False
            states = [x]
            for _ in range(cfg.max_iterations):
                if mode == "blurring":
                    new = blurring_step(PointSet(cur, w), kernel).positions
                else:
                    new = nonblurring_step(cur, data, kernel)
                d = new - cur
                disps.append(float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d)))))
                cur = new
                states.append(cur)
                if disps[-1] < cfg.stop_displacement:
                    converged = True
                    break
            assert trace.iterations == len(states) - 1 > 1
            assert trace.converged == converged
            assert final.positions.tobytes() == cur.tobytes()
            assert final.weights.tobytes() == w.tobytes()
            radii = [engine._max_pairwise_distance(s) for s in states]
            assert trace.radii.tobytes() == np.array(radii).tobytes()
            np.testing.assert_array_equal(trace.max_displacements, disps)

    def test_run_builds_no_point_set_per_iteration(self, monkeypatch):
        built = []
        post_init = PointSet.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PointSet, "__post_init__", counting)
        rng = np.random.default_rng(64)
        # two blobs six bandwidths apart drift together for far longer than
        # 50 iterations; the centres settle to within rounding, not below it
        ps = PointSet(np.r_[rng.normal(-3.0, 0.3, 20), rng.normal(3.0, 0.3, 20)])
        for mode in ("blurring", "nonblurring"):
            built.clear()
            cfg = RunConfig(
                kernel=GaussianKernel(1.0),
                mode=mode,
                stop_displacement=1e-300,
                max_iterations=50,
            )
            _, trace = run(ps, cfg)
            assert trace.iterations == 50 and not trace.converged
            assert len(built) <= 2, (mode, len(built))

    @pytest.mark.parametrize("mode", ["blurring", "nonblurring"])
    @pytest.mark.parametrize("trace_level", ["summary", "none"])
    def test_overflowing_spread_names_its_cause(self, mode, trace_level):
        # finite input whose squared distances exceed the float range
        cfg = RunConfig(kernel=GaussianKernel(1.0), mode=mode, trace_level=trace_level)
        for wide in ([0.0, 1e160, 3e160], [0.0, 1.5e154]):
            with pytest.raises(ValueError, match="overflow"):
                run(PointSet(np.array(wide)), cfg)

    def test_stds_of_a_cloud_whose_squared_deviations_sum_past_the_float_range(self):
        # each squared deviation fits a double, the sum of six does not
        ps = PointSet(np.array([0.0] * 3 + [1.3e154] * 3))
        _, trace = run(ps, RunConfig(kernel=GaussianKernel(1.0)))
        np.testing.assert_allclose(trace.stds, 1.3e154 * math.sqrt(0.3), rtol=1e-14, atol=0.0)

    def test_nonblurring_with_separate_centers(self):
        rng = np.random.default_rng(8)
        data = PointSet(rng.normal(size=(60, 1)))
        centers = PointSet(np.array([-0.5, 0.5]))
        final, trace = run(
            centers,
            RunConfig(kernel=GaussianKernel(2.0), mode="nonblurring"),
            data=data,
        )
        assert trace.converged
        # both centers settle at the single mode of one gaussian blob
        assert abs(final.positions[0, 0] - final.positions[1, 0]) < 1e-7


class TestExtractClusters:
    def test_two_blobs_exact_sizes(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0.0, 0.3, size=(30, 1))
        b = rng.normal(10.0, 0.3, size=(20, 1))
        ps = PointSet(np.vstack([a, b]))
        final, trace = run(ps, RunConfig(kernel=GaussianKernel(0.8)))
        res = extract_clusters(final)
        assert res.n_clusters == 2
        assert res.sizes.tolist() == [30, 20]
        assert np.array_equal(res.labels[:30], np.zeros(30, dtype=int))
        assert np.array_equal(res.labels[30:], np.ones(20, dtype=int))
        assert trace.converged

    def test_label_order_follows_first_member(self):
        # first point belongs to the far blob, so the far blob is cluster 0
        x = np.array([10.0, 0.0, 10.0, 0.0])
        res = extract_clusters(PointSet(x), merge_tolerance=0.5)
        assert res.labels.tolist() == [0, 1, 0, 1]
        np.testing.assert_allclose(res.centers.ravel(), [10.0, 0.0])

    def test_chain_linkage(self):
        x = np.array([0.0, 0.9e-6, 1.8e-6])
        res = extract_clusters(PointSet(x), merge_tolerance=1e-6)
        assert res.n_clusters == 1

    def test_weighted_centers(self):
        res = extract_clusters(
            PointSet(np.array([0.0, 1.0]), np.array([1.0, 3.0])), merge_tolerance=2.0
        )
        assert res.n_clusters == 1
        np.testing.assert_allclose(res.centers.ravel(), [0.75])

    def test_zero_tolerance_merges_exact_duplicates(self):
        res = extract_clusters(PointSet(np.array([1.0, 1.0, 2.0])), merge_tolerance=0.0)
        assert res.labels.tolist() == [0, 0, 1]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            extract_clusters(PointSet(np.array([0.0])), merge_tolerance=-1.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="merge_tolerance"):
            extract_clusters(PointSet(np.array([0.0])), merge_tolerance=tol)

    def test_close_pair_off_origin_is_one_cluster(self):
        # 6.2e-10 apart: the expanded form |a|^2 + |b|^2 - 2 a.b rounds their
        # squared distance to 3.6e-12 here, above tol^2 = 1e-12
        x = np.array(
            [
                [90.08724998293084, 90.87014484757553],
                [90.08724998230757, 90.87014484761686],
            ]
        )
        assert extract_clusters(PointSet(x)).labels.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(6))
    def test_labels_match_single_linkage_oracle(self, seed):
        # collapsed clumps far from the origin, jittered at the merge
        # tolerance so that chains form and break
        rng = np.random.default_rng([seed, 13])
        p = 1 + seed % 3
        clumps = rng.uniform(50.0, 1000.0, size=(12, p))
        x = clumps[rng.integers(12, size=150)] + rng.normal(0.0, 1e-6, (150, p))
        res = extract_clusters(PointSet(x), merge_tolerance=1e-6)
        assert res.labels.tolist() == single_linkage_labels(as_tuples(x), 1e-6)

    @pytest.mark.parametrize("k", [1, 7, 40, 100])
    @pytest.mark.parametrize("seed", range(2))
    def test_centres_and_sizes_match_exact_sum_oracle(self, k, seed):
        # collapsed clumps off the origin with unequal weights, plus points
        # of their own: one-point clusters among up to k + 10 clusters
        rng = np.random.default_rng([seed, k, 29])
        p = 1 + (seed + k) % 3
        clumps = rng.uniform(50.0, 1000.0, size=(k + 10, p))
        members = np.concatenate([rng.integers(k, size=3 * k), np.arange(k, k + 10)])
        x = clumps[members] + rng.normal(0.0, 1e-8, size=(members.size, p))
        w = rng.uniform(0.1, 10.0, size=members.size)
        res = extract_clusters(PointSet(x, w), merge_tolerance=1e-6)
        assert res.n_clusters == np.unique(members).size
        centres, sizes = naive_cluster_centres(as_tuples(x), w.tolist(), res.labels.tolist())
        assert res.sizes.tolist() == sizes
        assert 1 in sizes
        np.testing.assert_allclose(res.centers, np.array(centres), rtol=1e-14, atol=0.0)

    def test_result_holds_only_the_clustering(self):
        res = extract_clusters(PointSet(np.array([0.0, 5.0])), 1e-6)
        assert [f.name for f in dataclasses.fields(res)] == ["labels", "centers", "sizes"]

    def test_majority_mode_tie_takes_lowest_label(self):
        res = extract_clusters(PointSet(np.array([0.0, 0.0, 5.0, 5.0])), 1e-6)
        assert res.sizes.tolist() == [2, 2]
        np.testing.assert_allclose(majority_mode(res), [0.0])


@st.composite
def diameter_clouds(draw):
    """Clouds with many near-ties for the diameter, scaled and moved off
    the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["normal", "collapsed", "duplicates", "sphere", "mean"]))
    if kind == "normal":
        x = rng.normal(size=(n, p))
    elif kind == "collapsed":
        x = rng.normal(size=(3, p))[rng.integers(3, size=n)]
        x += 10.0 ** draw(st.floats(-14.0, -6.0)) * rng.normal(size=(n, p))
    elif kind == "duplicates":
        k = max(1, n // 4)
        x = rng.normal(size=(k, p))[rng.integers(k, size=n)]
    elif kind == "sphere":
        v = rng.normal(size=(n, p))
        x = v / np.linalg.norm(v, axis=1)[:, None]
        x += 10.0 ** draw(st.floats(-15.0, -3.0)) * rng.normal(size=(n, p))
    else:
        # integers symmetric about a point of the cloud: the mean is that
        # point exactly, here and after the integer offset below
        half = rng.integers(-5, 6, size=(n // 2, p)).astype(float)
        x = np.vstack([half, -half, np.zeros((1, p))])
        return x + np.array(draw(st.lists(st.integers(-10**8, 10**8), min_size=p, max_size=p)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    off = np.array(draw(st.lists(st.floats(-1e8, 1e8), min_size=p, max_size=p)))
    return x * scale + off


class TestDiameter:
    @given(x=diameter_clouds())
    @settings(max_examples=300, deadline=None)
    def test_equals_naive_diameter(self, x):
        assert engine._max_pairwise_distance(x) == naive_diameter(as_tuples(x))

    @pytest.mark.parametrize(
        "x",
        [
            [[5.0, -3.0]],
            [[1e8], [1e8]],
            # squares of these differences underflow into the subnormals
            [[-1e-162], [0.0], [1e-162], [3e-163]],
            [[-0.5e-162], [-1.5e-162], [1.5e-162], [0.5e-162]],
            # the point farthest from the mean ends no diameter, and the
            # diameter's ends sit on the pruning bound up to rounding
            [
                [0.11330627636063025, 0.05921619163202139, -0.41280251723077005],
                [0.11330627698459662, 0.05921619260375013, -0.41280251692010966],
                [-0.02124504973474698, -0.01110310029108143, 0.07740091931348779],
                [-0.10268375180523995, -0.053664641972345044, 0.37410205741869595],
                [-0.10268375180523995, -0.053664641972345044, 0.37410205741869595],
            ],
            [
                [919.5666381938512, -1000.5491623273168],
                [919.5666383255349, -1000.5491612195815],
                [-166.95985977299324, -871.3866736619627],
                [-493.73974961776844, -832.5402174178514],
                [-493.73974961776844, -832.5402174178514],
            ],
        ],
    )
    def test_edge_clouds_equal_naive_diameter(self, x):
        x = np.array(x)
        assert engine._max_pairwise_distance(x) == naive_diameter(as_tuples(x))

    def test_blob_cloud_compares_few_pairs(self, monkeypatch):
        pairs = []
        sq_dists = engine._sq_dists

        def counting(a, b):
            pairs.append(a.shape[0] * b.shape[0])
            return sq_dists(a, b)

        rng = np.random.default_rng(65)
        grid = np.array([(i, j) for i in range(10) for j in range(10)], float) * 10.0
        x = np.repeat(grid, 50, axis=0) + rng.normal(0.0, 0.5, (5000, 2)) + [300.0, 700.0]
        monkeypatch.setattr(engine, "_sq_dists", counting)
        got = engine._max_pairwise_distance(x)
        monkeypatch.undo()
        assert sum(pairs) < 0.01 * 5000**2, sum(pairs)
        best = 0.0
        for i0 in range(0, 5000, 500):
            d0 = x[i0 : i0 + 500, 0, None] - x[:, 0]
            d1 = x[i0 : i0 + 500, 1, None] - x[:, 1]
            best = max(best, float((d0 * d0 + d1 * d1).max()))
        assert got == math.sqrt(best)


coords = st.floats(-50.0, 50.0)


@st.composite
def clouds(draw, max_n=25):
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(1, 3))
    flat = draw(
        st.lists(coords, min_size=n * p, max_size=n * p).map(
            lambda v: np.array(v).reshape(n, p)
        )
    )
    w = draw(
        st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n).map(np.array)
    )
    return PointSet(flat, w)


class TestStepProperties:
    @given(ps=clouds(), tau=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, ps, tau):
        k = GaussianKernel(tau)
        perm = np.random.default_rng(0).permutation(ps.n)
        a = blurring_step(ps, k).positions[perm]
        b = blurring_step(PointSet(ps.positions[perm], ps.weights[perm]), k).positions
        scale = max(1.0, np.abs(ps.positions).max())
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)

    @given(ps=clouds(), tau=st.floats(0.1, 10.0), shift=st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, ps, tau, shift):
        k = GaussianKernel(tau)
        a = blurring_step(ps, k).positions
        b = blurring_step(PointSet(ps.positions + shift, ps.weights), k).positions
        np.testing.assert_allclose(
            b - shift, a, rtol=0, atol=1e-8 * (1.0 + abs(shift))
        )

    @given(ps=clouds(), tau=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_stays_inside_coordinate_box(self, ps, tau):
        new = blurring_step(ps, GaussianKernel(tau)).positions
        scale = max(1.0, np.abs(ps.positions).max())
        lo = ps.positions.min(axis=0) - 1e-12 * scale
        hi = ps.positions.max(axis=0) + 1e-12 * scale
        assert np.all(new >= lo) and np.all(new <= hi)

    @given(ps=clouds(), tau=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_radius_never_grows(self, ps, tau):
        from blurshift.engine import _max_pairwise_distance

        before = _max_pairwise_distance(ps.positions)
        after = _max_pairwise_distance(
            blurring_step(ps, GaussianKernel(tau)).positions
        )
        assert after <= before * (1 + 1e-12) + 1e-12

    @given(
        c=st.lists(coords, min_size=1, max_size=3).map(np.array),
        n=st.integers(1, 6),
        tau=st.floats(0.1, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_coincident_cloud_is_fixed(self, c, n, tau):
        x = np.tile(c, (n, 1))
        out = blurring_step(PointSet(x), GaussianKernel(tau)).positions
        np.testing.assert_allclose(out, x, rtol=1e-14, atol=1e-14)

    @given(
        ps=clouds(),
        tau=st.floats(0.1, 10.0),
        k=st.integers(-1000, 1000),
        mode=st.sampled_from(["blurring", "nonblurring"]),
        flat=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_times_power_of_two(self, ps, tau, k, mode, flat):
        # the product is exact and leaves every weighted mean as it was
        kernel = TruncatedFlatKernel(levels=((tau, 1.0),)) if flat else GaussianKernel(tau)
        cfg = RunConfig(kernel=kernel, mode=mode, max_iterations=30)
        scaled = PointSet(ps.positions, np.ldexp(ps.weights, k))

        def outcome(pts):
            try:
                final, trace = run(pts, cfg)
            except IsolatedCenterError as exc:
                return exc.center_index
            assert final.weights.tobytes() == pts.weights.tobytes()
            centres = extract_clusters(final).centers
            step = blurring_step(pts, kernel).positions
            return [a.tobytes() for a in (final.positions, trace.radii, centres, step)]

        assert outcome(ps) == outcome(scaled)

    def test_weights_too_wide_to_scale_named(self):
        pts = PointSet(np.array([0.0, 1.0]), np.array([1e300, 1e-300]))
        with pytest.raises(ValueError, match="weights"):
            blurring_step(pts, GaussianKernel(1.0))

    def test_single_point_fixed(self):
        out = blurring_step(
            PointSet(np.array([[2.5, -1.0]]), np.array([0.3])), GaussianKernel(1.0)
        )
        np.testing.assert_allclose(out.positions, [[2.5, -1.0]], rtol=1e-14)


TRANSLATION_KERNELS = {
    "gaussian": lambda tau: GaussianKernel(tau),
    "truncated": lambda tau: GaussianKernel(tau, support_radius=3.0 * tau),
}


def assert_translation_commutes(mode, kernel, x, w, off):
    """|step(y + off) - off - step(y)| stays within rounding of the offset
    and of the cloud's extent, with y built so that y + off is exact."""
    y = (x + off) - off

    def step(z):
        ps = PointSet(z, w)
        if mode == "blurring":
            return blurring_step(ps, kernel).positions
        return nonblurring_step(z, ps, kernel)

    extent = float(np.ptp(y, axis=0).max())
    bound = 4 * np.finfo(float).eps * np.abs(off).max() + 1e-12 * max(1.0, extent)
    err = float(np.abs(step(y + off) - off - step(y)).max())
    assert err <= bound, (err, bound)


class TestTranslation:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        p=st.integers(1, 3),
        log_tau=st.floats(-3.0, 3.0),
        spread=st.floats(0.01, 5.0),
        off=st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3),
        mode=st.sampled_from(["blurring", "nonblurring"]),
        kernel=st.sampled_from(sorted(TRANSLATION_KERNELS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_steps_commute_with_translation(
        self, seed, n, p, log_tau, spread, off, mode, kernel
    ):
        tau = 10.0**log_tau
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, spread * tau, size=(n, p))
        w = rng.uniform(0.5, 2.0, size=n)
        assert_translation_commutes(
            mode, TRANSLATION_KERNELS[kernel](tau), x, w, np.array(off[:p])
        )

    @pytest.mark.parametrize("mode", ["blurring", "nonblurring"])
    @pytest.mark.parametrize("kernel", sorted(TRANSLATION_KERNELS))
    def test_large_cloud_commutes_with_translation(self, mode, kernel):
        rng = np.random.default_rng(48)
        x = rng.normal(0.0, 1.0, size=(3100, 2))
        w = rng.uniform(0.5, 2.0, size=3100)
        assert_translation_commutes(
            mode, TRANSLATION_KERNELS[kernel](0.9), x, w, np.array([1e8, -3.7e7])
        )

import concurrent.futures
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("value", [2.5, True])
    def test_max_iterations_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            RunConfig(kernel=GaussianKernel(1.0), max_iterations=value)

    def test_numpy_max_iterations_stored_as_int(self):
        cfg = RunConfig(kernel=GaussianKernel(1.0), max_iterations=np.int64(7))
        assert type(cfg.max_iterations) is int and cfg.max_iterations == 7


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
        # every step threaded, one thread per stripe, against none threaded
        rng = np.random.default_rng(47)
        n = 3201
        kernels = (GaussianKernel(0.9), GaussianKernel(0.9, support_radius=2.7))
        for p in (1, 2):
            x = rng.normal(0.0, 1.0, size=(n, p))
            pts = PointSet(x, rng.uniform(0.5, 2.0, n))
            centers = x[:769] + 0.1
            for kernel in kernels:
                steps = []
                for threaded_pairs in (0, 10**30):
                    monkeypatch.setattr(engine, "_THREADED_PAIRS", threaded_pairs)
                    steps.append(
                        (
                            blurring_step(pts, kernel).positions,
                            nonblurring_step(centers, pts, kernel),
                        )
                    )
                for a, b in zip(*steps):
                    np.testing.assert_array_equal(a, b)

    def test_steps_below_threaded_pairs_start_no_threads(self, monkeypatch):
        class NoThreads:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a step below _THREADED_PAIRS asked for threads")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoThreads)
        rng = np.random.default_rng(48)
        x = rng.normal(0.0, 1.0, size=(3201, 2))
        pts = PointSet(x)
        assert 3201 * 3201 < engine._THREADED_PAIRS
        for kernel in (GaussianKernel(0.9), GaussianKernel(0.9, support_radius=2.7)):
            blurring_step(pts, kernel)
            nonblurring_step(x[:769], pts, kernel)
        # the guard bites: the same step asks for the pool once it is threaded
        monkeypatch.setattr(engine, "_THREADED_PAIRS", 0)
        with pytest.raises(AssertionError, match="asked for threads"):
            blurring_step(pts, GaussianKernel(0.9))

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
    """(squared distances, influences) of every whole tile that the reducer
    fills with ``engine._fill_tile`` while ``step()`` runs.

    The squared distances are the ones the hook clamps at 0 and hands to
    ``kernel._fill_sq``: on a dense tile the whole tile, on a sparse one the
    entries its own mask gathered, put back in their places among the
    entries past the zero radius, which the hook neither clamps nor fills."""
    seen, handed = [], []
    hook, fill = engine._fill_tile, kernel._fill_sq

    def spy_fill(z, *inside):
        handed.append(z.copy())
        fill(z, *inside)

    def spy_hook(k, z, inside):
        sq = z.copy()
        handed.clear()
        hook(k, z, inside)
        # one fill per tile, of the whole tile or of what the mask gathered
        (filled,) = handed
        if filled.shape == z.shape:
            sq = filled
        else:
            sq.reshape(-1)[np.flatnonzero(inside)] = filled
        seen.append((sq, z.copy()))

    # kernels are frozen dataclasses: shadow the method on this instance only
    object.__setattr__(kernel, "_fill_sq", spy_fill)
    engine._fill_tile = spy_hook
    try:
        step()
    finally:
        engine._fill_tile = hook
        object.__delattr__(kernel, "_fill_sq")
    return seen


def many_levels(count: int, step: float) -> TruncatedFlatKernel:
    """A flat kernel of ``count`` levels, thresholds ``step`` apart from
    ``step`` on, values falling evenly from 1 towards 0."""
    return TruncatedFlatKernel(
        levels=tuple((step * (i + 1), 1.0 - i / (count + 1)) for i in range(count))
    )


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
        # 41 and 131 squared bounds, counted into a byte, and 301, into two
        many_levels(40, 0.1),
        many_levels(130, 0.03),
        many_levels(300, 0.012),
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
        # the generic tile is one matmul of the rows [t, 1, tt] and the
        # columns [-2x, xx, 1], centred, with no pad, for p=1 as for p=2;
        # the 1-row target of the n=2 nonblurring case is a product too
        rng = np.random.default_rng(65)
        kernels = (
            GaussianKernel(0.7, support_radius=2.1),
            TruncatedFlatKernel(levels=((1.0, 0.5), (2.0, 0.25))),
            TabulatedKernel(knots=((0.0, 1.0), (1.0, 0.6), (2.5, 0.1))),
        )
        cases = ((2, 0.0), (97, 0.0), (256, 0.0), (180, 1e4), (256, -37.5))
        for p, (n, offset) in ((p, case) for p in (1, 2) for case in cases):
            x = rng.normal(offset, 3.0, size=(n, p))
            x[n // 2 :: 7] = x[1]
            targets = x if symmetric else x[::2] + 0.01
            xc = x - x.mean(axis=0)
            tc = targets - x.mean(axis=0)
            rows = np.hstack([tc, np.ones((len(tc), 1)), (tc * tc).sum(axis=1)[:, None]])
            cols = np.hstack([-2.0 * xc, (xc * xc).sum(axis=1)[:, None], np.ones((n, 1))])
            want = np.matmul(rows, cols.T)
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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 256),
        p=st.integers(1, 3),
        family=st.sampled_from(["wide gaussian", "cut gaussian", "flat", "tabulated"]),
        symmetric=st.booleans(),
        log_scale=st.floats(-3.0, 3.0),
        log_offset=st.floats(0.0, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_tile_is_within_eight_eps_of_direct_differences(
        self, seed, n, p, family, symmetric, log_scale, log_offset
    ):
        # clouds off the origin with repeated rows, of at most one tile: the
        # expanded form rounds by a few eps (tt_i + xx_j) of the centred rows
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        x = rng.normal(0.0, scale, size=(n, p)) + rng.uniform(-1.0, 1.0, p) * 10.0**log_offset
        x[n // 2 + 1 :: 5] = x[0]
        mu = engine._mean(x[None])[0]
        reach = float(((x - mu) ** 2).sum(axis=1).max())
        kernel = {
            # twice the widest spread the factorised tile takes
            "wide gaussian": GaussianKernel(math.sqrt(reach / (2.0 * engine._EXP_ARG_LIMIT))),
            "cut gaussian": GaussianKernel(0.5 * scale, support_radius=1.5 * scale),
            "flat": TruncatedFlatKernel(levels=((0.0, 1.0), (scale, 0.5), (2.0 * scale, 0.2))),
            "tabulated": TabulatedKernel(knots=((0.0, 1.0), (scale, 0.6), (2.5 * scale, 0.1))),
        }[family]
        targets = x if symmetric else x[::2] + rng.normal(0.0, 0.1 * scale, size=x[::2].shape)
        xc, tc = x - mu, targets - mu

        def step():
            try:
                if symmetric:
                    blurring_step(PointSet(x), kernel)
                else:
                    nonblurring_step(targets, PointSet(x), kernel)
            except IsolatedCenterError:
                pass  # its tile is taken all the same

        (sq, _), = tiles_seen(kernel, step)
        bound = 8.0 * np.finfo(float).eps * ((tc * tc).sum(axis=1)[:, None] + (xc * xc).sum(axis=1))
        assert (np.abs(sq - engine._sq_dists(tc, xc)) <= bound).all()


class TestFlatKernelSearch:
    """A flat kernel counts one comparison pass per squared bound on each
    tile, however many bounds it has, and never binary-searches them per
    pair. The count gives every tile the family's definition, bit for bit."""

    # 127 bounds, 255, the most that a one-byte index holds, and 256, which
    # takes a two-byte one
    @pytest.mark.parametrize("count", [126, 254, 255])
    def test_steps_never_binary_search(self, monkeypatch, count):
        kernel = many_levels(count, 0.03)
        assert len(kernel._bounds_sq) == count + 1
        rng = np.random.default_rng(66)
        x = rng.normal(0.0, 1.5, size=(600, 2)) + 25.0
        pts = PointSet(x, rng.uniform(0.5, 2.0, 600))

        def refuse(*args, **kwargs):
            raise AssertionError("a binary search per pair")

        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", refuse)
            seen = tiles_seen(kernel, lambda: blurring_step(pts, kernel))
            seen += tiles_seen(kernel, lambda: nonblurring_step(x[::3] + 0.01, pts, kernel))
        assert len(seen) > 2
        for sq, influence in seen:
            assert influence.tobytes() == influence_sq(kernel, sq).tobytes()


class TestSparseTiles:
    """A tile with few entries inside the kernel's zero radius fills only
    those, a denser one the whole tile, and both give the bits of the
    kernel's fill of the whole clamped tile."""

    @given(
        kernel=st.sampled_from(TestTileInfluence.KERNELS),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 30), st.integers(1, 50)),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kernel=TestTileInfluence.KERNELS[1], shape=(2, 17, 33), share=0.0, seed=0)
    @example(kernel=TestTileInfluence.KERNELS[1], shape=(2, 17, 33), share=1.0, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_hook_equals_the_whole_tile_fill(self, kernel, shape, share, seed):
        rng = np.random.default_rng(seed)
        zero_sq = kernel._zero_sq
        reach = zero_sq if math.isfinite(zero_sq) else 10.0
        inside = rng.random(shape) < share
        z = np.where(inside, rng.uniform(0.0, reach, shape), reach * rng.uniform(1.0, 50.0, shape))
        # the edges: expanded distances rounded below 0, exact 0 and the
        # zero radius itself inside; the next double up and the far end past it
        edge = rng.random(shape) < 0.2
        z[edge & inside] = rng.choice([-1e-16 * reach, 0.0, reach], size=z[edge & inside].shape)
        if math.isfinite(zero_sq):
            past = [np.nextafter(zero_sq, math.inf), 1e300]
            z[edge & ~inside] = rng.choice(past, size=z[edge & ~inside].shape)
        want = np.maximum(z, 0.0)
        kernel._fill_sq(want)
        engine._fill_tile(kernel, z, np.empty(shape, dtype=bool))
        assert z.tobytes() == want.tobytes()

    def test_steps_take_both_paths(self):
        # 100 blobs 10 apart under a support of 3 put about 1% of the pairs
        # inside it, so every tile is sparse; one N(0, 1) cloud puts most
        # inside, so every tile is dense
        kernel = GaussianKernel(1.0, support_radius=3.0)
        rng = np.random.default_rng(68)
        grid = np.array([(i, j) for i in range(10) for j in range(10)], float) * 10.0
        blobs = np.repeat(grid, 8, axis=0) + rng.normal(0.0, 0.5, (800, 2))
        # in random order: a blob's points together would crowd the small
        # tiles at the cloud's end past the crossover
        blobs = blobs[rng.permutation(800)]
        normal = rng.normal(0.0, 1.0, (800, 2))
        fill = kernel._fill_sq
        for x, sparse in ((blobs, True), (normal, False)):
            handed = []

            def spy(z, *inside):
                handed.append(z.ndim == 1)
                fill(z, *inside)

            object.__setattr__(kernel, "_fill_sq", spy)
            try:
                blurring_step(PointSet(x), kernel)
                nonblurring_step(x[::3] + 0.01, PointSet(x), kernel)
            finally:
                object.__delattr__(kernel, "_fill_sq")
            # a gathered vector on the sparse path, a whole tile on the dense
            assert len(handed) > 2 and set(handed) == {sparse}


class TestIsolation:
    def test_isolated_center_raises_with_index(self):
        data = PointSet(np.array([0.0, 0.5]))
        k = TruncatedFlatKernel(levels=((1.0, 0.5),))
        with pytest.raises(IsolatedCenterError) as err:
            nonblurring_step(np.array([0.2, 7.0]), data, k)
        assert err.value.center_index == 1

    def test_far_centre_under_the_untruncated_gaussian_is_not_isolated(self):
        # exp(-43.5^2 / 2) underflows, so every influence on the centre at
        # 45 sums to 0; the support is infinite, and its row is summed again
        # from direct differences less its smallest squared distance, a
        # factor that cancels in the mean
        x = np.random.default_rng(70).normal(size=50)
        data = PointSet(x)
        got = nonblurring_step(np.array([45.0, 0.3, -1.0]), data, GaussianKernel(1.0))
        sq = [(45.0 - v) ** 2 for v in x]
        f = [math.exp(-(s - min(sq)) / 2.0) for s in sq]
        want = math.fsum(fi * v for fi, v in zip(f, x)) / math.fsum(f)
        assert abs(got[0, 0] - want) <= 1e-12 * 45.0
        # a mean pulled to the nearest points, at the data's edge
        assert x.max() - 0.1 < got[0, 0] <= x.max()
        # the other rows keep their bits: a centre at 30 is not isolated and
        # keeps the tiles as wide
        near = nonblurring_step(np.array([30.0, 0.3, -1.0]), data, GaussianKernel(1.0))
        assert got[1:].tobytes() == near[1:].tobytes()
        # a Gaussian cut at 3 really isolates the centre
        with pytest.raises(IsolatedCenterError) as err:
            nonblurring_step(np.array([0.3, 45.0]), data, GaussianKernel(1.0, support_radius=3.0))
        assert err.value.center_index == 1

    def test_centres_on_the_points_of_a_wide_cloud_are_not_isolated(self):
        # 1.3e10 wide at tau 1: around the mean, the expanded squared distance
        # of a centre to its own point cancels to about 1e4, where it is 0
        rows = np.array(
            [[4539460831.113294, 6012438938.918918]] * 4
            + [[-7739573760.160408, -7321055034.930519]] * 2
        )
        bound = 4 * np.finfo(float).eps * float(np.ptp(rows, axis=0).max())
        got = nonblurring_step(rows, PointSet(rows), GaussianKernel(1.0))
        assert float(np.abs(got - rows).max()) <= bound
        final, trace = run(
            PointSet(rows), RunConfig(kernel=GaussianKernel(1.0), mode="nonblurring")
        )
        assert trace.converged
        assert float(np.abs(final.positions - rows).max()) <= bound

    def test_blurring_never_isolates(self):
        # self influence is exactly 1, so any cloud survives a tight cutoff
        x = np.array([0.0, 100.0, 200.0])
        k = TruncatedFlatKernel(levels=((1.0, 0.5),))
        out = blurring_step(PointSet(x), k)
        np.testing.assert_allclose(out.positions.ravel(), x)

    def test_steps_report_overflowing_spread(self):
        # the second cloud's squared distances from its mean stay finite,
        # but its pairwise squared distance, four times as large, does not;
        # the third's doubled coordinates overflow too, and must not warn
        clouds = ([0.0, 1e160, 3e160], [0.0, 1.5e154], [-1.7e308, 1.7e308])
        for wide in map(np.array, clouds):
            with pytest.raises(ValueError, match="overflow"):
                blurring_step(PointSet(wide), GaussianKernel(1.0))
            with pytest.raises(ValueError, match="overflow"):
                nonblurring_step(wide, PointSet(wide), GaussianKernel(1.0))
            # a run records the input, the third's std past the largest
            # double among it, before its first step rejects the cloud
            for mode in ("blurring", "nonblurring"):
                for level in ("summary", "full"):
                    cfg = RunConfig(kernel=GaussianKernel(1.0), mode=mode, trace_level=level)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        with pytest.raises(ValueError, match="too wide"):
                            run(PointSet(wide), cfg)

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
        cases = [
            (data, None, GaussianKernel(0.6)),
            (data, None, GaussianKernel(0.6, support_radius=1.8)),
        ]
        if mode == "nonblurring":
            # centres 17 from the data mean, past the factorised tile's limit
            # of sqrt(700) tau = 15.9, which the first step draws into the
            # data: the run switches from the generic tile to the factorised
            far = PointSet(x.mean(axis=0) + np.array([[17.0, 0.0], [0.0, -17.5]]))
            cases.append((far, data, GaussianKernel(0.6)))
        fewest = []
        for start, fixed, kernel in cases:
            cfg = RunConfig(kernel=kernel, mode=mode, max_iterations=40)
            runs = []
            generic = tiles_seen(kernel, lambda: runs.append(run(start, cfg, data=fixed)))
            final, trace = runs[0]
            if fixed is not None:
                assert 0 < len(generic) < trace.iterations
                want = dense_nonblurring_step(start.positions, x, w, kernel)
                got = nonblurring_step(start.positions, fixed, kernel)
                np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)
            cur, disps, converged = start.positions, [math.nan], False
            states, rows = [cur], [len(cur)]
            # blurring steps the distinct points, merged at the engine's
            # looks: after each step t, 0 included, that is a multiple of the
            # steps that sweep _LOOK_PAIRS pairs
            stepped, held = start, np.arange(len(cur))
            for t in range(cfg.max_iterations):
                if mode == "blurring":
                    if t % math.ceil(engine._LOOK_PAIRS / stepped.n**2) == 0:
                        stepped, held = merge_coincident(stepped, held)
                    rows.append(stepped.n)
                    stepped = blurring_step(stepped, kernel)
                    new = stepped.positions[held]
                else:
                    rows.append(len(cur))
                    new = nonblurring_step(cur, start if fixed is None else fixed, kernel)
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
            assert final.weights.tobytes() == start.weights.tobytes()
            radii = [engine._max_pairwise_distance(s) for s in states]
            assert trace.radii.tobytes() == np.array(radii).tobytes()
            np.testing.assert_array_equal(trace.max_displacements, disps)
            assert trace.step_rows.tolist() == rows
            fewest.append(min(rows))
        if mode == "blurring":
            # the untruncated run collapses into few distinct points, and
            # its last steps run on them
            assert fewest[0] < len(x) / 10

    def test_run_builds_no_point_set_per_iteration(self, monkeypatch):
        built = []
        post_init = PointSet.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PointSet, "__post_init__", counting)
        # and one reducer plan per nonblurring run, one per blurring step
        plans = []
        plan = engine._plan
        monkeypatch.setattr(engine, "_plan", lambda *args: plans.append(args) or plan(*args))
        rng = np.random.default_rng(64)
        # two blobs six bandwidths apart drift together for far longer than
        # 50 iterations; the centres settle to within rounding, not below it
        ps = PointSet(np.r_[rng.normal(-3.0, 0.3, 20), rng.normal(3.0, 0.3, 20)])
        for mode, want_plans in (("blurring", 50), ("nonblurring", 1)):
            built.clear()
            plans.clear()
            cfg = RunConfig(
                kernel=GaussianKernel(1.0),
                mode=mode,
                stop_displacement=1e-300,
                max_iterations=50,
            )
            _, trace = run(ps, cfg)
            assert trace.iterations == 50 and not trace.converged
            assert len(built) <= 2, (mode, len(built))
            assert len(plans) == want_plans, mode

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

    @pytest.mark.parametrize("mode", ["blurring", "nonblurring"])
    def test_copies_of_a_coordinate_near_the_largest_double(self, mode):
        # the plain mean of 200 copies of 1e307 overflows; every distance is
        # 0, and a leaked RuntimeWarning fails the test
        x = np.full((200, 1), 1e307)
        final, trace = run(PointSet(x), RunConfig(kernel=GaussianKernel(1.0), mode=mode))
        assert trace.converged
        assert final.positions.tobytes() == x.tobytes()
        assert np.all(trace.radii == 0.0) and np.all(trace.stds == 0.0)
        clusters = extract_clusters(final)
        assert clusters.centers.tolist() == [[1e307]]
        assert clusters.sizes.tolist() == [200]

    def test_half_shifted_near_the_largest_double_is_too_wide(self):
        # one ulp of 1e307 apart, 1.25e291: the squared distance really overflows
        x = np.full((200, 1), 1e307)
        x[100:] += 1e291
        for mode in ("blurring", "nonblurring"):
            with pytest.raises(ValueError, match="too wide"):
                run(PointSet(x), RunConfig(kernel=GaussianKernel(1.0), mode=mode))

    def test_half_shifted_near_the_largest_double_is_measured(self):
        # the squared distance overflows, the distance itself does not: one
        # ulp of 1e307, and a leaked RuntimeWarning fails the test
        x = np.full((200, 1), 1e307)
        x[100:] += 1e291
        assert engine._max_pairwise_distance(x) == 1.2474001934592e291
        clusters = extract_clusters(PointSet(x))
        assert clusters.sizes.tolist() == [100, 100]
        assert clusters.centers[:, 0].tolist() == [1e307, 1e307 + 1e291]
        # a distance past the largest double is inf, as the plain measure gives
        assert engine._max_pairwise_distance(np.array([[-1.7e308], [1.7e308]])) == math.inf

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


def merge_coincident(points, held):
    """``points`` with each group of bitwise-equal rows as one row, at the
    group's first row and in that order, that carries the group's weights
    summed in row order; and ``held``, indices into the rows of ``points``,
    mapped to the merged rows."""
    _, first, group = np.unique(
        points.positions.view(np.int64), axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    group = number[group.ravel()]
    weights = [0.0] * order.size
    for g, wi in zip(group.tolist(), points.weights.tolist()):
        weights[g] += wi
    return PointSet(points.positions[first[order]], np.array(weights)), group[held]


def run_batch(starts, kernel, mode, data=None, max_iterations=60):
    """``engine._iterate`` on a stack of runs: each member's start, and in
    nonblurring its fixed cloud (the start when ``data`` is None)."""
    fixed = starts if data is None else data
    return engine._iterate(
        np.stack([s.positions for s in starts]),
        np.stack([engine._scaled_weights(s.weights) for s in fixed]),
        kernel,
        None if mode == "blurring" else np.stack([s.positions for s in fixed]),
        engine.DEFAULT_STOP_DISPLACEMENT,
        max_iterations,
    )


def assert_members_run_alone(starts, kernel, mode, data=None, max_iterations=60, failing=()):
    """Every member of a batch gets bitwise what ``run`` gives it alone, and
    the members ``failing`` fail with the error that ``run`` raises alone."""
    final, iterations, converged, errors = run_batch(starts, kernel, mode, data, max_iterations)
    assert sorted(errors) == sorted(failing)
    cfg = RunConfig(kernel=kernel, mode=mode, max_iterations=max_iterations, trace_level="none")
    for b, start in enumerate(starts):
        if b in errors:
            with pytest.raises(type(errors[b]), match=re.escape(str(errors[b]))):
                run(start, cfg, data=None if data is None else data[b])
            continue
        alone, trace = run(start, cfg, data=None if data is None else data[b])
        assert final[b].tobytes() == alone.positions.tobytes(), b
        assert (iterations[b], converged[b]) == (trace.iterations, trace.converged), b
    return iterations, converged


class TestBatch:
    """Runs stepped together as one batch, each member on its own path."""

    def test_members_on_both_paths_and_switching_equal_their_runs(self):
        # tau 1: the factorised tile takes squared spreads below 700; n = 300
        # spans two row blocks, so a blurring step takes three tiles
        rng = np.random.default_rng(66)
        kernel = GaussianKernel(1.0)
        narrow = rng.normal(0.0, 1.0, (300, 2))
        # two blobs 60 apart: a spread of 900 keeps the generic tile
        wide = np.vstack([rng.normal(-30.0, 0.5, (150, 2)), rng.normal(30.0, 0.5, (150, 2))])
        # spread 28^2 at first; its edges contract below sqrt(700) in a few
        # steps, so it moves from the generic tile to the factorised
        edges = np.column_stack([np.linspace(-28.0, 28.0, 300), rng.normal(0.0, 0.2, 300)])
        # a lone point 27.2 out, while the tail next to the cluster collapses
        # into it: the mean moves away from the lone point, and the spread
        # grows from 698.6 past 700 at the second step, which pushes this
        # member onto the generic tile mid-run
        lone = np.random.default_rng(69)
        pushed = np.vstack([
            lone.normal(0.0, 0.3, (180, 2)),
            np.column_stack([lone.uniform(0.5, 3.0, 119), lone.normal(0.0, 0.3, 119)]),
            [[27.2, 0.0]],
        ])
        clouds = [PointSet(c + 5.0, rng.uniform(0.5, 2.0, 300)) for c in (narrow, wide, edges)]
        clouds.append(PointSet(pushed + 5.0))
        spreads = [
            float(np.max(np.sum((c - c.mean(axis=0)) ** 2, axis=1)))
            for c in (narrow, wide, edges, pushed)
        ]
        assert spreads[0] < 700.0 < min(spreads[1:3]) and spreads[3] < 700.0
        tiles = tiles_seen(kernel, lambda: run_batch(clouds, kernel, "blurring"))
        # up to three members share a stack of generic tiles: the wide one,
        # the edges while they are wide, and the pushed one once pushed
        assert {len(z) for z, _ in tiles} == {1, 2, 3}
        iterations, _ = assert_members_run_alone(clouds, kernel, "blurring")
        # the edges take the generic tile for their first steps only, and the
        # pushed member for all steps but its first
        cfg = RunConfig(kernel=kernel, max_iterations=60)
        assert 0 < len(tiles_seen(kernel, lambda: run(clouds[2], cfg))) < 3 * iterations[2]
        assert len(tiles_seen(kernel, lambda: run(clouds[3], cfg))) == 3 * (iterations[3] - 1)
        # nonblurring: centres on the data, and centres past the limit that
        # the first step draws in, from the generic tile to the factorised
        far = PointSet(narrow + [32.0, 5.0])
        data = [clouds[0], clouds[1], clouds[0], clouds[2]]
        starts = [clouds[0], clouds[1], far, clouds[2]]
        assert_members_run_alone(starts, kernel, "nonblurring", data)

    @pytest.mark.parametrize("mode, cap", [("blurring", 8), ("nonblurring", 80)])
    def test_members_leave_as_they_converge_or_cap(self, mode, cap):
        rng = np.random.default_rng(67)
        kernel = GaussianKernel(0.5, support_radius=1.5)
        starts = [PointSet(rng.normal(0.0, s, 40)) for s in (0.3, 1.0, 2.0, 0.5, 3.0, 1.5, 0.8)]
        iterations, converged = assert_members_run_alone(starts, kernel, mode, max_iterations=cap)
        # members left at different steps, and some at the cap
        assert len(set(iterations.tolist())) > 2 and not converged.all() and converged.any()

    def test_lowest_failing_member_raises(self):
        # members 1 and 2 each have a centre beyond the support of every
        # point: member 1's error, for its centre 2, is the one raised
        kernel = GaussianKernel(1.0, support_radius=2.0)
        near = PointSet(np.array([0.0, 1.0, 2.0]))
        centres = [
            PointSet(np.array(c)) for c in ([0.5, 1.5, 1.0], [0.5, 1.5, 9.0], [9.0, 1.0, 0.0])
        ]
        _, iterations, converged, errors = run_batch(centres, kernel, "nonblurring", [near] * 3)
        assert sorted(errors) == [1, 2] and converged[0]
        assert [errors[b].center_index for b in (1, 2)] == [2, 0]
        with pytest.raises(IsolatedCenterError) as err:
            engine._raise_first(errors)
        assert err.value.center_index == 2
        # a member too wide to sweep fails too, and first when it comes first
        wide = PointSet(np.array([0.0, 1e160, 3e160]))
        _, _, _, errors = run_batch(centres[::2], kernel, "nonblurring", [wide, near])
        assert sorted(errors) == [0, 1]
        with pytest.raises(ValueError, match="too wide"):
            engine._raise_first(errors)

    def test_failing_blurring_members_leave_the_others_as_alone(self):
        # a cloud of repeated rows merges before its first step, a cloud too
        # wide to sweep fails at its first, and two blobs run to the cap
        rng = np.random.default_rng(72)
        wide = np.r_[np.zeros(99), 3e160]
        clouds = [
            np.repeat(rng.normal(0.0, 1.0, 10), 10),
            wide,
            np.r_[rng.normal(-1.5, 0.3, 50), rng.normal(1.5, 0.3, 50)],
            wide,
        ]
        starts = [PointSet(c) for c in clouds]
        kernel = GaussianKernel(0.5)
        iterations, converged = assert_members_run_alone(
            starts, kernel, "blurring", max_iterations=120, failing=(1, 3)
        )
        _, _, _, errors = run_batch(starts, kernel, "blurring", max_iterations=120)
        assert all(type(errors[b]) is ValueError for b in (1, 3))
        assert converged[0] and (iterations[2], converged[2]) == (120, False)

    def test_members_that_merge_at_different_steps_equal_their_runs(self, monkeypatch):
        # 100 points under tau 0.5: a cloud of repeated rows merges before
        # its first step, two blobs at the look after step 14, evenly spaced
        # points there and again later, and a tight blob converges before
        # any look finds a copy; the blobs come twice, and their copies step
        # as one stack once they merge
        rng = np.random.default_rng(71)
        kernel = GaussianKernel(0.5)
        blobs = np.r_[rng.normal(-1.5, 0.3, 50), rng.normal(1.5, 0.3, 50)]
        clouds = [
            np.repeat(rng.normal(0.0, 1.0, 10), 10),
            rng.normal(0.0, 0.2, 100),
            blobs,
            np.arange(100) * 0.7 + rng.normal(0.0, 0.01, 100),
            np.arange(100) * 1.0 + rng.normal(0.0, 0.01, 100),
            blobs,
        ]
        starts = [PointSet(c[:, None] + 7.0, rng.uniform(0.5, 2.0, 100)) for c in clouds]
        stacks = []
        plan = engine._plan
        monkeypatch.setattr(
            engine, "_plan", lambda x, *rest: stacks.append(x.shape[:2]) or plan(x, *rest)
        )
        assert_members_run_alone(starts, kernel, "blurring", max_iterations=120)
        assert any(g > 1 and m < 100 for g, m in stacks)
        monkeypatch.undo()
        merged_at = set()
        for start in starts:
            _, trace = run(start, RunConfig(kernel=kernel, max_iterations=120))
            rows = trace.step_rows
            merged_at.update(np.flatnonzero(rows[1:] < rows[:-1]).tolist())
        assert len(merged_at) >= 4, merged_at

    def test_batch_size_keeps_the_tile_stack_within_its_budget(self):
        assert engine._batch_size(100) == engine._BATCH
        rows = engine._TILE_ROWS
        assert engine._batch_size(rows) == engine._BATCH_BYTES // (8 * rows * rows)
        assert engine._batch_size(rows) * 8 * rows * rows <= engine._BATCH_BYTES
        # a cloud past one tile steps alone
        assert engine._batch_size(rows + 1) == engine._batch_size(5000) == 1


def bfs_labels(x, tol):
    """The labelling loop without grouping equal rows: a breadth-first
    search from each unlabelled row in order, over the unlabelled rows."""
    labels = np.full(x.shape[0], -1, dtype=int)
    k = 0
    for seed in range(x.shape[0]):
        if labels[seed] >= 0:
            continue
        labels[seed] = k
        frontier = np.array([seed])
        while frontier.size:
            rest = np.flatnonzero(labels < 0)
            reach = np.zeros(rest.size, dtype=bool)
            for b0 in range(0, frontier.size, 256):
                near = engine._sq_dists(x[frontier[b0 : b0 + 256]], x[rest]) <= tol * tol
                reach |= near.any(axis=0)
            frontier = rest[reach]
            labels[frontier] = k
        k += 1
    return labels


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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 2000),
        distinct=st.integers(1, 60),
        p=st.integers(1, 5),
        tol=st.sampled_from([0.0, 1e-6, 0.5, 3.0]),
        signed_zeros=st.booleans(),
        spread=st.booleans(),
    )
    @example(seed=3, n=2000, distinct=60, p=3, tol=1e-6, signed_zeros=True, spread=False)
    @example(seed=4, n=2000, distinct=60, p=1, tol=3.0, signed_zeros=True, spread=True)
    @settings(max_examples=80, deadline=None)
    def test_grouped_labels_equal_the_bfs_and_single_linkage(
        self, seed, n, distinct, p, tol, signed_zeros, spread
    ):
        # a few rows repeated many times: clumps far from the origin,
        # jittered at the merge tolerance so that chains form and break, and
        # with signed zeros rows that are equal but not bitwise equal; spread
        # rows, one clump each, chain at the wider tolerances. In 1-d the
        # labels come from one sort, elsewhere from the BFS over distinct rows
        rng = np.random.default_rng(seed)
        clumps = rng.uniform(50.0, 1000.0, size=(distinct if spread else 1 + distinct // 8, p))
        rows = clumps[rng.integers(len(clumps), size=distinct)]
        rows += rng.normal(0.0, 1e-6, size=rows.shape)
        if signed_zeros:
            rows[::2, 0] = 0.0
            rows[1::2] = rows[::2][: distinct // 2]
            rows[1::2, 0] = -0.0
        x = rows[rng.integers(distinct, size=n)]
        labels = engine._component_labels(x, tol)
        assert labels.tobytes() == bfs_labels(x, tol).tobytes()
        # the scalar oracle takes seconds past a few hundred points
        if n <= 300 or (n, distinct) == (2000, 60):
            assert labels.tolist() == single_linkage_labels(as_tuples(x), tol)

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
            # 1-d: ties at both ends, off the origin, where the ends'
            # difference rounds
            [[1e8 + 0.1], [1e8 - 0.2], [1e8 + 0.1], [1e8 - 3e-9], [1e8 - 0.2]],
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


# |run(y + off) - off - run(y)| in units of eps (|off| + extent): the largest
# of 26 000 drawn runs of the property below was 5.3
RUN_TRANSLATION_ULPS = 64


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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        p=st.integers(1, 2),
        log_tau=st.floats(-3.0, 3.0),
        # clouds up to tau wide collapse as one cluster. A cloud that splits
        # magnifies any perturbation of its input as small as this rounding,
        # offset or none, to hundreds of ulps
        spread=st.floats(0.01, 1.0),
        off=st.lists(st.floats(-1e8, 1e8), min_size=2, max_size=2),
        mode=st.sampled_from(["blurring", "nonblurring"]),
        kernel=st.sampled_from(sorted(TRANSLATION_KERNELS)),
    )
    @settings(max_examples=50, deadline=None)
    def test_whole_runs_commute_with_translation(
        self, seed, n, p, log_tau, spread, off, mode, kernel
    ):
        # a run stops only at a step that moves nothing, after which every
        # step would repeat it, so both runs end where 100 steps take them.
        # They need not stop together: at offset 1e8 the ulp is 1.5e-8 and
        # the moved run's steps round to no move sooner. A stop at the
        # default 1e-10 could fall one step apart in the two runs, a
        # difference of that step, not of rounding
        tau = 10.0**log_tau
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, spread * tau, size=(n, p))
        w = rng.uniform(0.5, 2.0, size=n)
        off = np.array(off[:p])
        y = (x + off) - off
        config = RunConfig(
            kernel=TRANSLATION_KERNELS[kernel](tau),
            mode=mode,
            stop_displacement=math.ulp(0.0),
            max_iterations=100,
            trace_level="none",
        )
        final, _ = run(PointSet(y, w), config)
        moved, _ = run(PointSet(y + off, w), config)
        extent = float(np.ptp(y, axis=0).max())
        bound = RUN_TRANSLATION_ULPS * np.finfo(float).eps * (np.abs(off).max() + extent)
        err = float(np.abs(moved.positions - off - final.positions).max())
        assert err <= bound, (err, bound)

    @pytest.mark.parametrize("mode", ["blurring", "nonblurring"])
    @pytest.mark.parametrize("kernel", sorted(TRANSLATION_KERNELS))
    def test_large_cloud_commutes_with_translation(self, mode, kernel):
        rng = np.random.default_rng(48)
        x = rng.normal(0.0, 1.0, size=(3100, 2))
        w = rng.uniform(0.5, 2.0, size=3100)
        assert_translation_commutes(
            mode, TRANSLATION_KERNELS[kernel](0.9), x, w, np.array([1e8, -3.7e7])
        )


# each family with its scalar reference, built from tau and a cut at 3 tau;
# the flat profile holds 1 up to tau, so it has no jump at 0
MERGE_KERNELS = {
    "gaussian": lambda tau: (GaussianKernel(tau), gaussian_profile(tau)),
    "truncated": lambda tau: (
        GaussianKernel(tau, support_radius=3.0 * tau),
        gaussian_profile(tau, cutoff=3.0 * tau),
    ),
    "flat": lambda tau: (
        TruncatedFlatKernel(levels=((tau, 1.0), (3.0 * tau, 0.25))),
        stepped_profile(((tau, 1.0), (3.0 * tau, 0.25))),
    ),
    "tabulated": lambda tau: (
        TabulatedKernel(knots=((0.0, 1.0), (tau, 0.5), (3.0 * tau, 0.0))),
        tabulated_profile(((0.0, 1.0), (tau, 0.5), (3.0 * tau, 0.0))),
    ),
}


class TestMergedRuns:
    @given(
        seed=st.integers(0, 2**32 - 1),
        distinct=st.integers(1, 6),
        copies=st.integers(1, 12),
        p=st.integers(1, 3),
        log_tau=st.floats(-3.0, 3.0),
        # clouds up to tau wide, which collapse as one cluster, as in
        # TestTranslation's whole runs
        spread=st.floats(0.01, 1.0),
        off=st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3),
        kernel=st.sampled_from(sorted(MERGE_KERNELS)),
        steps=st.integers(1, 12),
    )
    @settings(max_examples=120, deadline=None)
    def test_whole_runs_on_repeated_rows_match_the_naive_steps(
        self, seed, distinct, copies, p, log_tau, spread, off, kernel, steps
    ):
        # rows repeated, so the run merges them before its first step, and
        # it may merge the points it collapses later; against the scalar
        # steps, which take every distance from direct differences, to
        # within rounding of the offset and the extent, as TestTranslation
        # bounds a whole run. The run stops only at a step that moves
        # nothing, after which each naive step moves by rounding alone
        tau = 10.0**log_tau
        rng = np.random.default_rng(seed)
        base = rng.normal(0.0, spread * tau, size=(distinct, p)) + np.array(off[:p])
        x = base[rng.integers(distinct, size=distinct + copies)]
        w = rng.uniform(0.5, 2.0, size=len(x))
        engine_kernel, profile = MERGE_KERNELS[kernel](tau)
        config = RunConfig(
            kernel=engine_kernel, stop_displacement=math.ulp(0.0), max_iterations=steps
        )
        final, trace = run(PointSet(x, w), config)
        assert trace.step_rows[1] == len(np.unique(x, axis=0)) < len(x)
        want = as_tuples(x)
        for _ in range(steps):
            want = naive_blurring_step(want, w.tolist(), profile)
        extent = float(np.ptp(x, axis=0).max())
        bound = RUN_TRANSLATION_ULPS * np.finfo(float).eps * (np.abs(x).max() + extent)
        err = float(np.abs(final.positions - np.array(want)).max())
        assert err <= bound, (err, bound)

    def test_repeated_rows_under_a_flat_kernel_that_jumps_at_zero(self):
        # two copies of a and seven of b: the kernel is 1 at 0 and 0.8 just
        # past it, and after the merge each copy sees the others at exactly
        # 0, as the definition has it
        a = (0.1681780952262086, 0.4544186129958571)
        b = (-0.529743598251258, -0.09934464883809942)
        x = np.array([a] * 2 + [b] * 7)
        levels = ((0.5, 0.8), (1.0, 0.5))
        config = RunConfig(kernel=TruncatedFlatKernel(levels=levels), max_iterations=1)
        final, trace = run(PointSet(x), config)
        assert trace.step_rows.tolist() == [9, 2]
        want = naive_blurring_step(as_tuples(x), [1.0] * 9, stepped_profile(levels))
        assert_matches_oracle(final.positions, want, 1.0)


# each family built from its lengths: tau, or the distances of its profile
SCALE_KERNELS = {
    "gaussian": lambda tau, _: GaussianKernel(tau),
    "truncated": lambda tau, cut: GaussianKernel(tau, support_radius=cut),
    "flat": lambda tau, cut: TruncatedFlatKernel(levels=((tau, 1.0), (cut, 0.25))),
    "tabulated": lambda tau, cut: TabulatedKernel(knots=((0.0, 1.0), (tau, 0.5), (cut, 0.0))),
}


class TestScale:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        p=st.integers(1, 2),
        tau=st.floats(0.2, 5.0),
        k=st.integers(-40, 40),
        mode=st.sampled_from(["blurring", "nonblurring"]),
        kernel=st.sampled_from(sorted(SCALE_KERNELS)),
        weighted=st.booleans(),
    )
    # tau * tau and tau**2 round apart here, and the run used to differ
    # from the unscaled one at this scale
    @example(
        seed=3, n=30, p=1, tau=1.8903560604397107, k=-20, mode="blurring",
        kernel="gaussian", weighted=False,
    )
    @settings(max_examples=150, deadline=None)
    def test_whole_run_commutes_with_power_of_two_scale(
        self, seed, n, p, tau, k, mode, kernel, weighted
    ):
        # every length times 2^k: a product that is exact, so each rounding
        # of the run scales with it and the whole run is bitwise the same
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        w = rng.uniform(0.5, 2.0, size=n) if weighted else np.ones(n)
        lengths = np.array([tau, 3.0 * tau, 1e-10, 1e-6])

        def outcome(scale):
            tau_s, cut_s, stop_s, tol_s = np.ldexp(lengths, scale)
            config = RunConfig(
                kernel=SCALE_KERNELS[kernel](float(tau_s), float(cut_s)),
                mode=mode,
                stop_displacement=float(stop_s),
                max_iterations=60,
            )
            final, trace = run(PointSet(np.ldexp(x, scale), w), config)
            clusters = extract_clusters(final, float(tol_s))
            return final.positions, trace, clusters

        final, trace, clusters = outcome(0)
        scaled, scaled_trace, scaled_clusters = outcome(k)
        for got, want in (
            (scaled, final),
            (scaled_trace.radii, trace.radii),
            (scaled_trace.stds, trace.stds),
            (scaled_clusters.centers, clusters.centers),
        ):
            assert got.tobytes() == np.ldexp(want, k).tobytes()
        assert scaled_trace.iterations == trace.iterations
        assert scaled_trace.converged == trace.converged
        assert np.array_equal(scaled_clusters.labels, clusters.labels)

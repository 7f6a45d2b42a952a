"""Mean-shift iteration engine.

Two update rules over a weighted point cloud, both driven by a radial
influence kernel:

* blurring: every point is replaced by the influence-weighted average of the
  current cloud, all points updated synchronously from the same snapshot;
* nonblurring: a set of centers is repeatedly averaged against a fixed
  reference cloud, which never moves.

Both steps run through one reducer plan, whatever the size of the cloud.
A plan takes a stack of clouds, its leading batch axis, and is built once:
it centres each cloud on its mean, so results commute with translation up
to rounding of the cloud's extent, and holds every array that depends on
the clouds alone. Its sweep moves each member's targets to their
influence-weighted means of that member's cloud; sweeping the clouds
themselves, ``sweep(None)``, is the blurring step, with the self pair pinned
at f(0) = 1. Every pair enters the sums exactly, and no pair of nonzero
influence is left out. The sums are accumulated over cache-sized tiles in
a fixed order; an untruncated Gaussian takes a factorised tile that needs
no distances, and every other kernel takes a generic tile, one product of
the targets' rows [t, 1, |t|^2] and the data's columns [-2x, |x|^2, 1]
that gives every expanded squared distance at once, and overwrites it with
influences in place. The kernel is evaluated only inside its exact zero
radius, past which every influence is +0.0: a tile with few pairs inside
gathers and fills those alone and zeroes the rest, bitwise what filling
the whole tile gives, and the products over the tile stay dense. A cloud
of more than one column tile on the generic path is swept in the order of
its first centred coordinate, targets too, and a tile whose rows and
columns lie farther apart than the zero radius, by a margin that covers
the expanded form's rounding, is skipped whole: its influences would all
be +0.0, and adding +0.0 changes no sum's bits.
The tile path is chosen per member, and the members on one path are swept
as a stack of tiles, one per member, through the same ufunc sequence as a
member alone, so a member's result never depends on its batch.

One private loop steps a batch of runs: a nonblurring batch builds one plan
of its fixed data and sweeps the centres with it every step, a blurring
batch a plan of its moving clouds each step, and a member leaves when it
converges, reaches the iteration cap or fails. ``run`` is the batch of one
that records its trace; the Monte Carlo tables run their replications on
clouds of at most ``_TILE_ROWS`` points in batches of up to ``_BATCH``.

Blurring collapses each cluster into points with equal coordinates, and a
blurring run steps each such group once: the accelerated blurring mean
shift of Carreira-Perpinan (2006), restricted to exact coincidence. Between
steps a member looks for bitwise-equal rows and merges each group into one
row that carries the group's summed weight, and keeps the map from its
points to their rows, through which its final positions and every trace
entry are read back at its full size. Coincident points move alike in exact
arithmetic, so nothing is approximated; only the sums round differently.
When a member looks depends on its own rows alone. The running members of
a batch step as one stack per count of rows, and one rule regroups them: a
stack steps on as it is until one of its members fails or finishes, or a
look finds rows of one that may coincide, and then every running member,
merged where its rows coincide, is stacked again by its count of rows. So
a member's result still never depends on its batch. Single steps and
nonblurring runs never merge.

Row blocks of the tiles are dealt round-robin to a fixed number of stripes.
Each stripe sums its tiles in a fixed order into its own accumulator, and
the stripe accumulators are added in stripe order. A step of at least
``_THREADED_PAIRS`` pairs runs each of its stripes on a thread of its own
(numpy ufuncs and BLAS release the interpreter lock); a smaller one runs
them on the calling thread, so its time does not depend on a second CPU
being free. The split never depends on the thread count, so a step gives
bitwise the same result on one thread or several.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import GaussianKernel, Kernel

__all__ = [
    "PointSet",
    "RunConfig",
    "IterationTrace",
    "ClusterResult",
    "IsolatedCenterError",
    "blurring_step",
    "nonblurring_step",
    "run",
    "extract_clusters",
    "majority_mode",
    "DEFAULT_STOP_DISPLACEMENT",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_MERGE_TOLERANCE",
]

DEFAULT_STOP_DISPLACEMENT = 1e-10
DEFAULT_MAX_ITERATIONS = 500
DEFAULT_MERGE_TOLERANCE = 1e-6

# tiles of the reducer: 1 MiB of doubles stays in a core's L2,
# and the skinny tile products are small enough that BLAS keeps them on the
# calling thread; at 128 x 2048 BLAS's own threads contended with the other
# stripe and doubled the p=2 step
_TILE_ROWS = 256
_TILE_COLS = 512
# stripes of the reducer; fixed, so results never depend on the
# machine's thread count
_STRIPES = 2
# steps with fewer pairs run their stripes on the calling thread: two threads
# need two CPUs at once, so a threaded step slows by whatever share another
# busy process takes, while a one-thread step keeps to whichever CPU is free;
# from here on a step takes a fifth of a second and more on one core
_THREADED_PAIRS = 10**8
# largest exponent the factorised Gaussian tiles may produce
_EXP_ARG_LIMIT = 700.0
# largest squared spread from the mean that a sweep takes: a pairwise squared
# distance reaches four times as much
_WIDEST = np.finfo(float).max / 4
# a generic tile fills only its entries inside the kernel's zero radius when
# they are at most this share of the tile. On one 256 x 512 tile with a
# random pattern of entries inside (best of 15, one BLAS thread, 2-vCPU VM;
# BENCH_22.json), gathering them costs less than filling the whole tile up
# to about 18% inside for the flat kernel of 3 levels and 28% for the
# Gaussian cut at 3 tau, and up to 70% and more for the tabulated kernel and
# a flat one of 300 levels; at 1% inside the Gaussian cut costs 0.8 ns per
# entry gathered against 2.9 filled whole
_SPARSE_SHARE = 0.2
# runs on clouds of at most _TILE_ROWS points stepped together as one batch:
# at most this many, and few enough that the stack of their tiles, one per
# run, stays within the byte budget
_BATCH = 64
_BATCH_BYTES = 2**23
# a blurring member of m rows looks for coincident rows after every step
# that is a multiple of ceil(_LOOK_PAIRS / m^2), step 0 included. A look
# sorts one coordinate of the rows, and sorts the rows only on a tie
# (look_cost in BENCH_23.json, 2-vCPU VM): 4.6 us at 100 points in 1-d,
# where a run's step took 85 us, and 0.026 ms at 5000 points in 2-d, where
# a step took 39 ms. So a cloud of more than 362 rows looks after every
# step, and one of 100 every 14 steps, for well under 1% of its step time
_LOOK_PAIRS = 2**17


class IsolatedCenterError(RuntimeError):
    """A nonblurring center fell outside the support of every data point."""

    def __init__(self, center_index: int):
        self.center_index = int(center_index)
        super().__init__(
            f"center {center_index} has zero total influence from the data; "
            "it is beyond the kernel support of every point"
        )


@dataclass
class PointSet:
    """Weighted points: positions (n, p), strictly positive weights (n,).

    A 1-d positions array of length n is accepted and treated as (n, 1).
    Weights default to 1.
    """

    positions: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] < 1:
            raise ValueError("positions must be a nonempty (n, p) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if self.weights is None:
            w = np.ones(pos.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pos.shape[0],):
                raise ValueError("weights must be a length-n vector")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and strictly positive")
        self.positions = pos
        self.weights = w

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]


def _as_count(name: str, value) -> int:
    """``value`` as a Python int: numpy integers are accepted, while bool
    and non-integer values raise a ValueError that names the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class RunConfig:
    """Iteration settings.

    mode: "blurring" or "nonblurring".
    stop_displacement: declare convergence once the largest per-point move in
        one iteration falls below this.
    trace_level: "none" records nothing, "summary" records displacement,
        radius and per-dimension std per iteration, "full" adds positions.
    """

    kernel: Kernel
    mode: str = "blurring"
    stop_displacement: float = DEFAULT_STOP_DISPLACEMENT
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    trace_level: str = "summary"

    def __post_init__(self):
        if self.mode not in ("blurring", "nonblurring"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.trace_level not in ("none", "summary", "full"):
            raise ValueError(f"unknown trace_level: {self.trace_level!r}")
        if not 0 < self.stop_displacement < math.inf:
            raise ValueError("stop_displacement must be positive and finite")
        self.max_iterations = _as_count("max_iterations", self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not isinstance(self.kernel, Kernel):
            raise ValueError("kernel must be a Kernel instance")


@dataclass
class IterationTrace:
    """Per-iteration columns of a run; entry t describes the cloud after t
    steps, entry 0 the input.

    max_displacements: (T+1,) largest per-point move into each entry, nan
        at entry 0.
    radii: (T+1,) largest pairwise distance.
    stds: (T+1, p) per-dimension sample std.
    positions: T+1 copies of the cloud at trace_level="full", else None.
    step_rows: (T+1,) how many rows the step into each entry ran on: the
        cloud's n, or fewer once a blurring run merged coincident points;
        n at entry 0. None when the trace was not recorded by ``run``.

    At trace_level="none" the columns are empty, stds of shape (0, p).
    """

    max_displacements: np.ndarray
    radii: np.ndarray
    stds: np.ndarray
    positions: Optional[list] = None
    converged: bool = False
    iterations: int = 0
    step_rows: Optional[np.ndarray] = None


@dataclass
class ClusterResult:
    labels: np.ndarray  # (n,) cluster index per point, 0-based
    centers: np.ndarray  # (k, p) weighted mean of each cluster
    sizes: np.ndarray  # (k,) member counts

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)


def _scaled_weights(w: np.ndarray) -> np.ndarray:
    """The weights times the power of two that puts the largest in [1, 2).

    Weighted means do not change and the product is exact, but the weighted
    sums of a finite cloud can no longer overflow for the weights' sake.
    Weights whose largest is already in [1, 2), unit weights among them,
    come back as they are."""
    shift = 1 - math.frexp(float(w.max()))[1]
    if shift == 0:
        return w
    scaled = np.ldexp(w, shift)
    if not scaled.min() > 0.0:
        raise ValueError(
            "weights span too wide a range: with the largest scaled to about 1, "
            "the smallest underflows to 0"
        )
    return scaled


# a decorator, not a with block: it costs half as much per call
@np.errstate(over="ignore", invalid="ignore")
def _mean(x: np.ndarray, average=lambda v: np.add.reduce(v, axis=-2, keepdims=True) / v.shape[-2]):
    """``average(x)``, a mean over the rows of x, that cannot overflow; the
    default is x.mean(axis=-2, keepdims=True) bit for bit, without its
    wrapper's cost, and takes a stack of clouds (B, n, p) as well as one
    cloud (n, p).

    Where an entry comes out not finite, it is taken again as the largest
    |coordinate| of its column times the average of the column scaled by
    it, which stays within [-1, 1]. Finite entries keep their bits, and no
    RuntimeWarning is emitted."""
    m = average(x)
    # a Python loop: numpy's own checks cost more than this on a few entries
    if all(map(math.isfinite, m.ravel().tolist())):
        return m
    wide = ~np.isfinite(m)
    cols = wide.reshape(-1, x.shape[-1]).any(axis=0)
    top = np.abs(x[..., cols]).max(axis=-2, keepdims=True)
    m[..., cols] = np.where(wide[..., cols], top * average(x[..., cols] / top), m[..., cols])
    return m


def _groups(keys) -> dict:
    """The positions in ``keys`` of each distinct key, in order, the keys in
    the order they first appear."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _paths(spreads: np.ndarray, limit: float) -> dict:
    """The members of each tile path, in order, by their squared spreads
    (B,): True for the factorised tile, below ``limit``, False for the
    generic one, and None for the members too wide to sweep."""
    return _groups([s < limit if s <= _WIDEST else None for s in spreads.tolist()])


def _fill_tile(kernel: Kernel, z: np.ndarray, inside: np.ndarray) -> None:
    """Overwrite the tile z, the contiguous expanded squared distances that
    one product gave, not yet clamped at 0, with their influences, clamp
    included; ``inside`` is a bool buffer of z's shape, scratch for the mask
    of the entries within the kernel's zero radius ``_zero_sq``, past which
    every influence is exactly +0.0.

    A tile with at most ``_SPARSE_SHARE`` of its entries inside gathers
    them, fills that vector and scatters it back into a zeroed tile; any
    other tile is filled whole, with the mask handed to the kernel for the
    comparison it would make itself. The fill is elementwise and the
    skipped entries are +0.0 on both paths, so both give the same bits."""
    np.less_equal(z, kernel._zero_sq, out=inside)
    if np.count_nonzero(inside) > _SPARSE_SHARE * z.size:
        np.maximum(z, 0.0, out=z)
        kernel._fill_sq(z, inside)
        return
    flat = z.reshape(-1)
    at = np.flatnonzero(inside)
    near = flat.take(at)
    np.maximum(near, 0.0, out=near)
    kernel._fill_sq(near)
    flat.fill(0.0)
    flat[at] = near


# squared gaps and bounds past the largest double are past any zero radius
@np.errstate(over="ignore")
def _far_chunks(t: np.ndarray, tt: np.ndarray, x: np.ndarray, xx: np.ndarray, zero_sq: float):
    """Which chunks of ``_TILE_ROWS`` targets t (G, m, p), whose squared
    norms are tt (G, m), lie past the zero radius of which chunks of as
    many data points x (G, n, p), squared norms xx (G, n), on every member:
    a nested list, entry [r][c] for target chunk r and data chunk c, true
    only where a generic tile's every expanded squared distance between the
    two chunks exceeds ``zero_sq``, so that the fill would make each of
    their influences +0.0.

    The squared gap between the chunks' bounding boxes is at most each
    pair's squared distance, and rounds by under (p + 2) eps/2 of itself,
    taken as 4 (p + 2) eps. The expanded form rounds by under
    (1.5 p + 2) eps (tt_i + xx_j): taken as the 8 eps that
    ``TestTileInfluence`` pins, and as 2 (p + 2) eps from p = 3 on."""
    p = t.shape[2]
    eps = np.finfo(float).eps

    def boxes(y: np.ndarray, yy: np.ndarray):
        at = np.arange(0, y.shape[1], _TILE_ROWS)
        lo, hi = np.minimum.reduceat(y, at, axis=1), np.maximum.reduceat(y, at, axis=1)
        return lo, hi, np.maximum.reduceat(yy, at, axis=1)

    tlo, thi, ttop = boxes(t, tt)
    xlo, xhi, xtop = boxes(x, xx)
    gap = np.maximum(np.maximum(xlo[:, None] - thi[:, :, None], tlo[:, :, None] - xhi[:, None]), 0.0)
    low = np.einsum("grcd,grcd->grc", gap, gap) * (1.0 - 4.0 * (p + 2) * eps)
    low -= max(8.0, 2.0 * (p + 2)) * eps * (ttop[:, :, None] + xtop[:, None])
    return (low > zero_sq).all(axis=0).tolist()


def _plan(x: np.ndarray, w: np.ndarray, kernel: Kernel):
    """The reducer plan of a stack of B clouds x (B, n, p) with weights w
    (B, n). The centred clouds are built here, once; the returned
    ``sweep(targets)`` moves each member's targets (B, m, p) to their
    influence-weighted means of that member's cloud, and returns them with
    a dict of the members that failed, each with its error: a ValueError
    for a member too wide to sweep, IsolatedCenterError for the first target
    of a member that collects zero influence. A target whose tiles sum to
    zero weight is summed again by ``_exact_sums`` from direct differences,
    and fails only if it still has none. ``sweep(None)`` is the
    blurring step, whose targets are x itself: each pair is evaluated once,
    every off-diagonal tile is also scattered transposed into its column
    rows, and the self pair enters with influence exactly f(0) = 1.

    Every member runs the same ufunc sequence as a stack of one; the batch
    axis only leads each array, and the slices of a batched product are the
    products of one member, so a member gets bitwise the result it gets
    alone, whatever else is in its batch.

    Everything is centred on each member's data mean first, which makes the
    sums commute with translation up to rounding of the extent, not of |x|.
    An untruncated Gaussian whose centred spread, of the data and the
    targets together, keeps every exponent within ``_EXP_ARG_LIMIT`` is
    factorised, exp(-|u - v|^2) = e^{-|u|^2} e^{-|v|^2} e^{2 u.v}, so a tile
    costs one product and one exp, its columns padded to at least two. Any
    other kernel takes the generic tile: one product of the targets' rows
    [t, 1, |t|^2] and the data's columns [-2x, |x|^2, 1] gives the centred
    expanded squared distances |t|^2 + |x|^2 - 2 t.x, with no pad and no
    pass after it, and ``_fill_tile`` overwrites them, clamped at 0, with
    influences, and evaluates the kernel only on the pairs inside its
    zero radius where they are few. The path is chosen per member and per
    sweep, and the members of one path are swept together. The data side of
    a path and its members is built by the first sweep that takes them and
    kept for every later sweep that does.

    On the generic path, a cloud of more than ``_TILE_COLS`` points under
    a kernel with a finite zero radius is ordered: the data side sorts its
    points by their first centred coordinate (a stable sort, once per
    plan), each sweep sorts its targets the same way, and a blurring sweep
    takes the data's order. ``_far_chunks`` then finds the chunks of
    ``_TILE_ROWS`` targets and points whose every expanded squared distance
    exceeds the zero radius, and a tile that covers only such chunk pairs
    is skipped: the fill would set it wholly to +0.0, so the sums keep
    their bits. Chunks, not tiles, because a blurring sweep's column tiles
    start at the end of its row block. The moved targets are put back in
    the input's order, and an isolated target is named by its index there.
    Clouds of one column tile and the factorised tile are never reordered.

    Row block b of ``_TILE_ROWS`` targets goes to stripe b mod ``_STRIPES``;
    each stripe walks its blocks in order, in tiles of ``_TILE_COLS``
    columns (a stack of one such tile per member), into its own
    accumulator, and the accumulators are added in stripe order. Which
    stripes exist depends on m alone, so the thread count, one per stripe
    from ``_THREADED_PAIRS`` pairs on and one below, never changes a bit of
    the result.
    """
    B, n, p = x.shape
    mu = _mean(x)
    xc = x - mu
    xx = np.einsum("bij,bij->bi", xc, xc)
    reach = xx.max(axis=1, initial=0.0)
    # spreads below this take the factorised tile
    gaussian = isinstance(kernel, GaussianKernel) and not math.isfinite(kernel.support_radius)
    limit = _EXP_ARG_LIMIT * (kernel.tau * kernel.tau) if gaussian else 0.0

    # on the generic path: one column tile has nothing to skip
    ordered = n > _TILE_COLS and math.isfinite(kernel._zero_sq)

    def side(g: list, factored: bool):
        """The data side of the members g on one tile path: the columns
        (G, k, n) that the targets' rows multiply into a tile, the weighted
        coordinates and weights V (G, n, p + 1), the factorised tile's
        data factors a (G, n), None on the generic path, the data's order
        (G, n), None where it is not sorted, and the centred data and its
        squared norms in that order."""
        # every member's own arrays without a copy
        xg, wg, xxg = (xc, w, xx) if len(g) == B else (xc[g], w[g], xx[g])
        order = None
        if ordered and not factored:
            order = np.argsort(xg[:, :, 0], axis=1, kind="stable")
            xg = np.take_along_axis(xg, order[:, :, None], axis=1)
            wg, xxg = np.take_along_axis(wg, order, axis=1), np.take_along_axis(xxg, order, axis=1)
        V, a = np.empty((len(g), n, p + 1)), None
        if factored:
            # at least two columns, zeros after the first p: a k=1 matmul is
            # slower than an elementwise outer product, a k=2 one faster, and
            # r c + 0 0 = r c. Rows times columns of the cross term give
            # 2 u.v with u = x / (sqrt 2 tau)
            cols = np.zeros((len(g), n, max(p, 2)))
            np.multiply(xg, 2.0 / (math.sqrt(2.0) * kernel.tau), out=cols[:, :, :p])
            a = np.exp(xxg / (-2.0 * kernel.tau * kernel.tau))
        else:
            # columns [-2x, |x|^2, 1] against the rows [t, 1, |t|^2]: one
            # product gives every expanded squared distance, no pass after it
            cols = np.concatenate([-2.0 * xg, xxg[:, :, None], np.ones((len(g), n, 1))], axis=2)
        V[:, :, p] = wg if a is None else a * wg
        V[:, :, :p] = V[:, :, p, None] * xg
        return cols.transpose(0, 2, 1), V, a, order, xg, xxg

    # the data side of each (tile path, members) that a sweep takes, built
    # by the first such sweep; never one for a member too wide to sweep: its
    # products could overflow, and every sweep fails it first
    sides = {}

    def sweep(targets: Optional[np.ndarray]):
        blur = targets is None
        tc = xc if blur else targets - mu
        tt = xx if blur else np.einsum("bij,bij->bi", tc, tc)
        # targets that push the spread to the limit take the generic path
        paths = _paths(reach if blur else np.maximum(reach, tt.max(axis=1, initial=0.0)), limit)
        m = tc.shape[1]
        errors, new = {}, None
        for factored, g in paths.items():
            if factored is None:
                for b in g:
                    errors[b] = ValueError(
                        "the cloud is too wide: its pairwise squared distances overflow"
                    )
                continue
            key = (factored, *g)
            if key not in sides:
                sides[key] = side(g, factored)
            colsT, V, a, order, xg, xxg = sides[key]
            G = len(g)
            mug = mu if G == B else mu[g]
            if blur:
                # the targets are the data, in its order
                tg, ttg, torder = xg, xxg, order
            else:
                tg, ttg, torder = (tc, tt, None) if G == B else (tc[g], tt[g], None)
                if order is not None:
                    torder = np.argsort(tg[:, :, 0], axis=1, kind="stable")
                    tg = np.take_along_axis(tg, torder[:, :, None], axis=1)
                    ttg = np.take_along_axis(ttg, torder, axis=1)
            far = None if order is None else _far_chunks(tg, ttg, xg, xxg, kernel._zero_sq)
            if factored:
                rows = np.zeros((G, m, colsT.shape[1]))
                rows[:, :, :p] = tg / (math.sqrt(2.0) * kernel.tau)
            else:
                rows = np.concatenate([tg, np.ones((G, m, 1)), ttg[:, :, None]], axis=2)

            def tile(
                i0: int, i1: int, j0: int, j1: int, buf: np.ndarray, mask: Optional[np.ndarray]
            ) -> np.ndarray:
                # contiguous head of the flat buffer: a strided view of a full-size
                # tile doubles the cost of the ufuncs on small tiles
                z = buf[: G * (i1 - i0) * (j1 - j0)].reshape(G, i1 - i0, j1 - j0)
                np.matmul(rows[:, i0:i1], colsT[:, :, j0:j1], out=z)
                if factored:
                    return np.exp(z, out=z)
                if blur and i0 == j0:
                    # the self pairs, on every member's diagonal
                    z.reshape(G, -1)[:, :: i1 - i0 + 1] = 0.0
                _fill_tile(kernel, z, mask[: z.size].reshape(z.shape))
                return z

            def stripe(s: int) -> np.ndarray:
                acc = np.zeros((G, m, p + 1))
                buf = np.empty(G * min(m, _TILE_ROWS) * min(n, _TILE_COLS))
                mask = None if factored else np.empty(buf.size, dtype=bool)
                for i0 in range(s * _TILE_ROWS, m, _STRIPES * _TILE_ROWS):
                    i1 = min(i0 + _TILE_ROWS, m)
                    if blur:
                        acc[:, i0:i1] += tile(i0, i1, i0, i1, buf, mask) @ V[:, i0:i1]
                    for j0 in range(i1 if blur else 0, n, _TILE_COLS):
                        j1 = min(j0 + _TILE_COLS, n)
                        if far is not None and all(
                            far[i0 // _TILE_ROWS][j0 // _TILE_ROWS : -(-j1 // _TILE_ROWS)]
                        ):
                            # every influence is +0.0, which leaves a sum's bits alone
                            continue
                        F = tile(i0, i1, j0, j1, buf, mask)
                        acc[:, i0:i1] += F @ V[:, j0:j1]
                        if blur:
                            acc[:, j0:j1] += F.transpose(0, 2, 1) @ V[:, i0:i1]
                return acc

            stripes = range(min(_STRIPES, max(1, -(-m // _TILE_ROWS))))
            if len(stripes) == 1 or G * m * n < _THREADED_PAIRS:
                # no thread pool: it costs more than a whole small step
                parts = [stripe(s) for s in stripes]
            else:
                # imported here, not at module level: concurrent.futures loads
                # logging, a startup cost for every import of the package
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=len(stripes)) as pool:
                    parts = list(pool.map(stripe, stripes))
            acc = parts[0]
            for part in parts[1:]:
                acc += part
            if factored:
                acc *= (a if blur else np.exp(ttg / (-2.0 * kernel.tau * kernel.tau)))[:, :, None]
            den = acc[:, :, p]
            # count_nonzero, not den.all(): a third of the cost on a small step
            if np.count_nonzero(den) < den.size:
                for k in np.flatnonzero(~den.all(axis=1)).tolist():
                    # the expanded form's rounding, or underflow, can leave a
                    # target without influence that it has: sum its rows again
                    at = np.flatnonzero(den[k] == 0.0)
                    acc[k, at] = _exact_sums(kernel, tg[k, at], xc[g[k]], w[g[k]], gaussian)
                    lost = np.flatnonzero(den[k] == 0.0)
                    if lost.size:
                        # the first isolated target in the input's order
                        first = lost if torder is None else torder[k, lost]
                        errors[g[k]] = IsolatedCenterError(int(first.min()))
                # no division by zero: the failed members' rows go unused
                den[den == 0.0] = 1.0
            moved = acc[:, :, :p] / den[:, :, None] + mug
            if torder is not None:
                # back to the input's order
                np.put_along_axis(moved, torder[:, :, None], moved.copy(), axis=1)
            if G == B:
                return moved, errors
            if new is None:
                new = np.empty(tc.shape)
            new[g] = moved
        # no path: every member failed
        return (np.empty(tc.shape) if new is None else new), errors

    return sweep


def _exact_sums(kernel: Kernel, t: np.ndarray, x: np.ndarray, w: np.ndarray, shift: bool):
    """The sums of a sweep for the targets t (k, p) against the cloud x
    (n, p) with weights w (n,): (k, p + 1), the weighted coordinates and
    the total weight, with squared distances from direct differences. With
    ``shift``, for the untruncated Gaussian, each target's squared
    distances are taken less their smallest: the factor this scales its
    sums by cancels in its mean, and its nearest points no longer underflow.
    A truncated kernel's target beyond the support of every point still
    sums to zero weight."""
    sq = _sq_dists(t, x)
    if shift:
        sq -= sq.min(axis=1, keepdims=True)
    return kernel.evaluate_sq(sq) @ np.column_stack([w[:, None] * x, w])


def _raise_first(errors: dict) -> None:
    """Raise the error of the lowest-numbered member, if any failed: the one
    a loop over the members in order meets first."""
    if errors:
        raise errors[min(errors)]


def blurring_step(points: PointSet, kernel: Kernel) -> PointSet:
    """One synchronous blurring update of the whole cloud.

    Every point moves to the influence-weighted average of the current
    cloud; all updates read the same snapshot. The self term enters with
    influence exactly 1, so denominators are always positive.
    """
    x, w = points.positions, points.weights
    new, errors = _plan(x[None], _scaled_weights(w)[None], kernel)(None)
    _raise_first(errors)
    return PointSet(new[0], w.copy())


def nonblurring_step(centers: np.ndarray, data: PointSet, kernel: Kernel) -> np.ndarray:
    """One update of ``centers`` against the fixed ``data`` cloud.

    Raises IsolatedCenterError if some center collects zero influence from
    every data point, which only a truncated kernel can give: under the
    untruncated Gaussian a center whose influences all underflow moves to
    the mean weighted by its influences relative to its nearest point's.
    """
    c = np.asarray(centers, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[1] != data.dimension:
        raise ValueError("centers and data must share a dimension")
    new, errors = _plan(data.positions[None], _scaled_weights(data.weights)[None], kernel)(c[None])
    _raise_first(errors)
    return new[0]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between the rows of a and b,
    summed dimension by dimension from direct differences. Their rounding
    scales with the distances themselves, not with |a|^2 + |b|^2 as in the
    expanded form, so points that have collapsed far from the origin keep
    their tiny distances. The trace radius, the cluster labels and the
    influence check all take their distances from here."""
    sq, d = np.zeros((2, a.shape[0], b.shape[0]))
    for ad, bd in zip(a.T, b.T):
        np.subtract(ad[:, None], bd, out=d)
        sq += np.square(d, out=d)
    return sq


def _max_pairwise_distance(x: np.ndarray) -> float:
    """Largest pairwise distance, exactly the largest of ``_sq_dists``.

    With r the distances to the mean, both ends of a diameter D lie at
    least D - max r from it, and D is at least ``lower``, the largest
    distance from the point farthest out; so only rows with
    r >= lower - max r are compared pairwise. The slack covers the
    rounding of r, lower and D, which scales with max r and p, and
    underflow of the squares.

    A cloud whose squared distances overflow is measured again scaled by
    the power of two that brings its largest |coordinate| into [0.5, 1),
    exactly for every coordinate that stays a normal double, and the
    distance is scaled back, inf if it is past the largest double."""
    d = _diameter(x)
    if math.isfinite(d):
        return d
    e = math.frexp(float(np.abs(x).max()))[1]
    try:
        return math.ldexp(_diameter(np.ldexp(x, -e)), e)
    except OverflowError:
        return math.inf


# a decorator, not a with block: it costs half as much per call
@np.errstate(over="ignore", invalid="ignore")
def _diameter(x: np.ndarray) -> float:
    fi = np.finfo(float)
    r = np.sqrt(_sq_dists(x, _mean(x))[:, 0])
    far = int(np.argmax(r))
    best = float(_sq_dists(x[far, None], x).max())
    slack = (x.shape[1] + 2) * (8.0 * fi.eps * r[far] + math.sqrt(fi.tiny))
    keep = x[r >= math.sqrt(best) - r[far] - slack]
    for i0 in range(0, keep.shape[0], _TILE_ROWS):
        best = max(best, float(_sq_dists(keep[i0 : i0 + _TILE_ROWS], keep[i0:]).max()))
    return math.sqrt(best)


# a std past the largest double reads inf, as the radius does
@np.errstate(over="ignore", invalid="ignore")
def _cloud_stds(x: np.ndarray) -> np.ndarray:
    if x.shape[0] < 2:
        return np.zeros(x.shape[1])
    stds = x.std(axis=0, ddof=1)
    wide = ~np.isfinite(stds)
    if wide.any():
        # each squared deviation fits a double but their sum need not: sum
        # them scaled by the largest, then scale back
        dev = x[:, wide] - _mean(x[:, wide])
        top = np.abs(dev).max(axis=0)
        top[top == 0.0] = 1.0  # all equal: the std is 0
        stds[wide] = top * (dev / top).std(axis=0, ddof=1)
    return stds


def _batch_size(n: int) -> int:
    """How many runs on clouds of n points step as one batch. A batch saves
    the fixed cost of numpy's calls, once per batch instead of once per
    member, and that pays only while one tile holds a member's whole cloud:
    a cloud of more than ``_TILE_ROWS`` points steps alone, since its tile
    stack would leave the cache that one tile was sized for. A smaller
    cloud steps with at most ``_BATCH`` - 1 others, and few enough that
    the stack of one tile per member stays within ``_BATCH_BYTES``."""
    if n > _TILE_ROWS:
        return 1
    return min(_BATCH, _BATCH_BYTES // (8 * n * n))


def _tied(x: np.ndarray) -> np.ndarray:
    """Whether the cloud x (m, p), or each cloud of a stack (B, m, p), has
    two rows with equal first coordinates. Equal rows do, so a cloud
    without them has none; one sort of that coordinate tells, at a third of
    the cost of sorting the rows."""
    first = np.sort(x[..., 0], axis=-1)
    return (first[..., 1:] == first[..., :-1]).any(axis=-1)


def _distinct(x: np.ndarray):
    """The bitwise-equal rows of x (m, p) in groups: the index of each
    group's first row, ascending, and the group of every row (m,), the
    groups numbered in that order, so x[first][group] is x. One stable sort
    of the rows' bits; 0.0 and -0.0 fall in different groups."""
    m = x.shape[0]
    every = np.arange(m)
    if not _tied(x):
        return every, every
    bits = np.ascontiguousarray(x).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    ordered = bits[order]
    starts = np.empty(m, dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    if starts.all():
        return every, every
    # a stable sort puts each group's first row first in it
    first = order[starts]
    by_first = np.argsort(first)
    number = np.empty(first.size, dtype=np.intp)
    number[by_first] = np.arange(first.size)
    group = np.empty(m, dtype=np.intp)
    group[order] = number[np.cumsum(starts) - 1]
    return first[by_first], group


def _merge(member: tuple) -> tuple:
    """The running member (index, x, w, rows) with each group of its
    bitwise-equal rows merged into the group's first row, which carries the
    group's summed weight, scaled as ``_scaled_weights`` scales; rows (n,)
    gives each of the member's n points the row that holds it. A member
    without equal rows comes back as it is."""
    b, x, w, rows = member
    first, group = _distinct(x)
    if first.size == x.shape[0]:
        return member
    return b, x[first], _scaled_weights(np.bincount(group, weights=w)), group[rows]


def _iterate(x, w, kernel, data, stop, max_iterations, record=None):
    """Mean-shift runs of a stack of B members, each until its largest
    per-point displacement drops below ``stop`` or ``max_iterations`` steps
    are taken.

    Blurring (``data`` None) moves the clouds x (B, n, p), whose weights
    are w (B, n), with a plan of the moving clouds each step. A member
    holding m rows looks for coincident rows after each step t that is a
    multiple of ceil(``_LOOK_PAIRS`` / m^2), step 0 included, and merges
    any it finds (``_merge``). Nonblurring moves the centres x against the
    fixed clouds data (B, n, p), whose weights are w (B, n), with one plan
    of the data, built again only when members leave.

    The members that hold the same number of rows step as one stack, and a
    stack steps on as it is until one of its members fails or finishes, or
    a look finds rows of one that may coincide (``_tied``): then every
    running member, merged where it has coincident rows, is stacked again
    by its number of rows. A member leaves when it converges, reaches the
    cap or fails, and gets bitwise what it would get alone. ``record(disp, x,
    stepped)``, for a batch of one, sees each step's displacement,
    positions at full size and the rows the step ran on.

    Returns the final positions (B, n, p), the iterations (B,) and the
    converged flags (B,) of every member, and a dict of the failed members
    with their errors; a failed member's other entries mean nothing.
    """
    blurring = data is None
    B, n = x.shape[:2]
    final = x.copy()
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    errors = {}
    # each running member is (index, x, w, rows): its rows, their weights,
    # and the row that holds each of its n points
    running = list(zip(range(B), x, w, [np.arange(n)] * B))
    if blurring:
        # every member looks before its first step
        running = [_merge(member) if tie else member for member, tie in zip(running, _tied(x))]
    stacks, planned, changed = [], None, True
    for t in range(1, max_iterations + 1):
        if changed:
            for stack in stacks:
                running += zip(*stack)
            stacks = []
            for same in _groups([member[1].shape[0] for member in running]).values():
                index, xs, ws, maps = zip(*[running[i] for i in same])
                stacks.append((list(index), np.array(xs), np.array(ws), np.array(maps)))
            running = []
        if not stacks:
            break
        capped = t == max_iterations
        moved, changed = [], False
        for index, x, w, rows in stacks:
            if not blurring and index != planned:
                sweep, planned = _plan(data[index], w, kernel), index
            new, failed = _plan(x, w, kernel)(None) if blurring else sweep(x)
            if failed:
                # a failed member's rows may be unset memory: it stays where it was
                new[list(failed)] = x[list(failed)]
            step = new - x
            disps = np.sqrt(np.einsum("bij,bij->bi", step, step).max(axis=1)).tolist()
            if record is not None and not failed:
                record(disps[0], new[0][rows[0]], new[0])
            # members of m rows look when t is a multiple of the steps that
            # sweep _LOOK_PAIRS pairs of m
            tied = []
            if blurring and t % -(-_LOOK_PAIRS // x.shape[1] ** 2) == 0:
                tied = np.flatnonzero(_tied(new)).tolist()
            if not (failed or capped or tied or min(disps) < stop):
                moved.append((index, new, w, rows))
                continue
            changed = True
            for g, b in enumerate(index):
                if g in failed:
                    errors[b] = failed[g]
                elif capped or disps[g] < stop:
                    final[b] = new[g, rows[g]]
                    iterations[b], converged[b] = t, disps[g] < stop
                else:
                    member = (b, new[g], w[g], rows[g])
                    running.append(_merge(member) if g in tied else member)
        stacks = moved
    return final, iterations, converged, errors


def run(points: PointSet, config: RunConfig, data: Optional[PointSet] = None):
    """Iterate until the largest per-point displacement drops below
    ``config.stop_displacement`` or ``config.max_iterations`` is exhausted.

    Blurring mode iterates ``points`` as the moving cloud. Nonblurring mode
    treats ``points`` as the initial centers and averages them against
    ``data`` (defaulting to the same cloud, centers start on the data).

    Returns (final PointSet, IterationTrace). Exhausting the iteration
    budget is not an error; the trace's ``converged`` flag reports it. The
    inputs are checked here once; the steps run on bare arrays, as a batch
    of one run whose trace is recorded.
    """
    blurring = config.mode == "blurring"
    if blurring and data is not None:
        raise ValueError("blurring mode does not take separate data")
    fixed = points if data is None else data
    if fixed.dimension != points.dimension:
        raise ValueError("centers and data must share a dimension")
    disps, radii, stds, step_rows = [], [], [], []
    positions = [] if config.trace_level == "full" else None

    def record(disp: float, x: np.ndarray, stepped: np.ndarray) -> None:
        disps.append(disp)
        step_rows.append(stepped.shape[0])
        # coincident points add only zero distances: the rows stepped give
        # the radius of the whole cloud, bitwise
        radii.append(_max_pairwise_distance(stepped))
        stds.append(_cloud_stds(x))
        if positions is not None:
            positions.append(x.copy())

    if config.trace_level != "none":
        record(math.nan, points.positions, points.positions)
    final, iterations, converged, errors = _iterate(
        points.positions[None],
        _scaled_weights(fixed.weights)[None],
        config.kernel,
        None if blurring else fixed.positions[None],
        config.stop_displacement,
        config.max_iterations,
        None if config.trace_level == "none" else record,
    )
    _raise_first(errors)
    trace = IterationTrace(
        max_displacements=np.array(disps),
        radii=np.array(radii),
        stds=np.array(stds).reshape(len(stds), points.dimension),
        positions=positions,
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
        step_rows=np.array(step_rows, dtype=int),
    )
    return PointSet(final[0], points.weights.copy()), trace


# squared distances that overflow to inf are past any tolerance, as they should be
@np.errstate(over="ignore")
def _component_labels(x: np.ndarray, tol: float) -> np.ndarray:
    """Connected components of the 'within tol of each other' graph
    (single linkage), labeled in order of each component's first point.

    Equal rows are at distance 0 and always share a component, so only the
    first row of each group of bitwise-equal rows is labelled, in order,
    and the others take its label. A component's first point is the first
    row of its group, so the numbering is the same.

    Squared distances come from ``_sq_dists``: the expanded form's
    rounding off the origin is far above tol^2 at the default tolerance,
    and would split collapsed clusters.

    In 1-d nothing is grouped: the points are sorted once and cut wherever
    the squared gap between neighbours, taken as ``_sq_dists`` takes it,
    exceeds tol^2. Rounded subtraction and squaring are monotone, so two
    points are never closer than a gap between them, and the components
    are the BFS's."""
    tol_sq = tol * tol
    if x.shape[1] == 1:
        order = np.argsort(x[:, 0])
        gaps = np.diff(x[order, 0])
        starts = np.flatnonzero(np.concatenate([[True], gaps * gaps > tol_sq]))
        # each component's first point, and its number in their order
        first = np.minimum.reduceat(order, starts)
        number = np.empty(first.size, dtype=int)
        number[np.argsort(first)] = np.arange(first.size)
        labels = np.empty(x.shape[0], dtype=int)
        labels[order] = np.repeat(number, np.diff(np.append(starts, x.shape[0])))
        return labels
    first, group = _distinct(x)
    x = x[first]
    n = x.shape[0]
    labels = np.full(n, -1, dtype=int)
    k = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = k
        frontier = np.array([seed])
        while frontier.size:
            # only unlabelled points can join: every earlier component is closed
            rest = np.flatnonzero(labels < 0)
            # take, not x[rest]: numpy's fancy indexing copies rows several
            # times slower, and rest is most of the cloud
            xr = x.take(rest, axis=0)
            reach = np.zeros(rest.size, dtype=bool)
            for b0 in range(0, frontier.size, _TILE_ROWS):
                reach |= (_sq_dists(x[frontier[b0 : b0 + _TILE_ROWS]], xr) <= tol_sq).any(axis=0)
            frontier = rest[reach]
            labels[frontier] = k
        k += 1
    return labels[group]


def extract_clusters(
    final: PointSet, merge_tolerance: float = DEFAULT_MERGE_TOLERANCE
) -> ClusterResult:
    """Group the final positions by single linkage at ``merge_tolerance``.

    Two points share a cluster when a chain of pairwise-close points links
    them. Cluster labels follow the first member's index, so label 0 always
    contains point 0. Centers are weight-averaged member positions, summed
    in point order in one pass over the labels. Whether the run converged
    is on its trace.
    """
    if not 0 <= merge_tolerance < math.inf:
        raise ValueError("merge_tolerance must be nonnegative and finite")
    x, w = final.positions, _scaled_weights(final.weights)
    labels = _component_labels(x, merge_tolerance)
    total = np.bincount(labels, weights=w)[:, None]
    centers = _mean(
        x, lambda v: np.column_stack([np.bincount(labels, weights=w * vd) for vd in v.T]) / total
    )
    return ClusterResult(labels=labels, centers=centers, sizes=np.bincount(labels))


def majority_mode(result: ClusterResult) -> np.ndarray:
    """Center of the most populated cluster; ties go to the lowest label."""
    return result.centers[int(np.argmax(result.sizes))].copy()

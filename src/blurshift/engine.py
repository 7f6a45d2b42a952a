"""Mean-shift iteration engine.

Two update rules over a weighted point cloud, both driven by a radial
influence kernel:

* blurring: every point is replaced by the influence-weighted average of the
  current cloud, all points updated synchronously from the same snapshot;
* nonblurring: a set of centers is repeatedly averaged against a fixed
  reference cloud, which never moves.

Blurring is nonblurring with the targets equal to the data and the self pair
pinned at f(0) = 1, so both steps run through one reducer, whatever the size
of the cloud. Every pair is evaluated exactly, no neighbor pruning. The
reducer centres the cloud on its mean, so results commute with translation
up to rounding of the cloud's extent, and accumulates the sums over
cache-sized tiles in a fixed order; an untruncated Gaussian takes a
factorised tile that needs no distances, and every other kernel overwrites
the tile's squared distances with influences in place.

Row blocks of the tiles are dealt round-robin to a fixed number of stripes.
Each stripe sums its tiles in a fixed order into its own accumulator, and
the stripe accumulators are added in stripe order. A step of at least
``_THREADED_PAIRS`` pairs runs its stripes on up to that many threads (numpy
ufuncs and BLAS release the interpreter lock); a smaller one runs them on
the calling thread, so its time does not depend on a second CPU being free.
The split never depends on the thread count, so a step gives bitwise the
same result on one thread or several.
"""

from __future__ import annotations

import math
import os
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

    At trace_level="none" the columns are empty, stds of shape (0, p).
    """

    max_displacements: np.ndarray
    radii: np.ndarray
    stds: np.ndarray
    positions: Optional[list] = None
    converged: bool = False
    iterations: int = 0


@dataclass
class ClusterResult:
    labels: np.ndarray  # (n,) cluster index per point, 0-based
    centers: np.ndarray  # (k, p) weighted mean of each cluster
    sizes: np.ndarray  # (k,) member counts

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)


def _stripe_workers() -> int:
    """Threads to run the stripes on: at most one per stripe and per CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_STRIPES, cpus)


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


def _reduce(
    targets: np.ndarray, x: np.ndarray, w: np.ndarray, kernel: Kernel, symmetric: bool
):
    """New positions of the targets: the influence-weighted means of x.

    Raises IsolatedCenterError for the first target that collects zero
    influence. With symmetric=True the targets are x itself:
    each pair is evaluated once, every off-diagonal tile is also scattered
    transposed into its column rows, and the self pair enters with influence
    exactly f(0) = 1.

    Everything is centred on the data mean first, which makes the sums
    commute with translation up to rounding of the extent, not of |x|. An
    untruncated Gaussian whose centred spread keeps every exponent within
    ``_EXP_ARG_LIMIT`` is factorised, exp(-|u - v|^2) =
    e^{-|u|^2} e^{-|v|^2} e^{2 u.v}, so a tile costs one product and one
    exp; for any other kernel ``kernel._fill_sq`` overwrites the tile of
    centred expanded squared distances, clamped at 0, with influences.

    Row block b of ``_TILE_ROWS`` targets goes to stripe b mod ``_STRIPES``;
    each stripe walks its blocks in order, in tiles of ``_TILE_COLS``
    columns, into its own accumulator, and the accumulators are added in
    stripe order. Which stripes exist depends on m alone, so the thread
    count, one below ``_THREADED_PAIRS`` pairs, never changes a bit of the
    result.
    """
    n, p = x.shape
    m = targets.shape[0]
    mu = x.mean(axis=0)
    xc = x - mu
    tc = xc if symmetric else targets - mu
    xx = np.einsum("ij,ij->i", xc, xc)
    tt = xx if symmetric else np.einsum("ij,ij->i", tc, tc)
    spread = max(xx.max(initial=0.0), tt.max(initial=0.0))
    # a pairwise squared distance reaches four times the largest from the mean
    if not spread <= np.finfo(float).max / 4:
        raise ValueError("the cloud is too wide: its pairwise squared distances overflow")
    factored = (
        isinstance(kernel, GaussianKernel)
        and not math.isfinite(kernel.support_radius)
        and spread < _EXP_ARG_LIMIT * kernel.tau**2
    )
    V = np.empty((n, p + 1))
    # at least two columns, zeros after the first p: a k=1 matmul is slower
    # than an elementwise outer product, a k=2 one faster, and r c + 0 0 = r c
    rows, cols = np.zeros((m, max(p, 2))), np.zeros((n, max(p, 2)))
    if factored:
        # rows times columns of the cross term give 2 u.v with u = x / (sqrt 2 tau)
        scale = math.sqrt(2.0) * kernel.tau
        np.divide(tc, scale, out=rows[:, :p])
        np.multiply(xc, 2.0 / scale, out=cols[:, :p])
        a = np.exp(xx / (-2.0 * kernel.tau**2))
        V[:, p] = a * w
    else:
        rows[:, :p] = tc
        np.multiply(xc, -2.0, out=cols[:, :p])
        V[:, p] = w
    V[:, :p] = V[:, p, None] * xc

    def tile(i0: int, i1: int, j0: int, j1: int, buf: np.ndarray) -> np.ndarray:
        # contiguous head of the flat buffer: a strided view of a full-size
        # tile doubles the cost of the ufuncs on small tiles
        z = buf[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
        np.matmul(rows[i0:i1], cols[j0:j1].T, out=z)
        if factored:
            return np.exp(z, out=z)
        z += tt[i0:i1, None]
        z += xx[None, j0:j1]
        np.maximum(z, 0.0, out=z)
        if symmetric and i0 == j0:
            np.fill_diagonal(z, 0.0)
        kernel._fill_sq(z)
        return z

    def stripe(s: int) -> np.ndarray:
        acc = np.zeros((m, p + 1))
        buf = np.empty(_TILE_ROWS * max(_TILE_ROWS, _TILE_COLS))
        for i0 in range(s * _TILE_ROWS, m, _STRIPES * _TILE_ROWS):
            i1 = min(i0 + _TILE_ROWS, m)
            if symmetric:
                acc[i0:i1] += tile(i0, i1, i0, i1, buf) @ V[i0:i1]
            for j0 in range(i1 if symmetric else 0, n, _TILE_COLS):
                j1 = min(j0 + _TILE_COLS, n)
                F = tile(i0, i1, j0, j1, buf)
                acc[i0:i1] += F @ V[j0:j1]
                if symmetric:
                    acc[j0:j1] += F.T @ V[i0:i1]
        return acc

    stripes = range(min(_STRIPES, max(1, -(-m // _TILE_ROWS))))
    workers = min(len(stripes), _stripe_workers()) if m * n >= _THREADED_PAIRS else 1
    if workers == 1:
        # no thread pool: it costs more than a whole small step
        parts = [stripe(s) for s in stripes]
    else:
        # imported here, not at module level: concurrent.futures loads
        # logging, a startup cost for every import of the package
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(stripe, stripes))
    acc = parts[0]
    for part in parts[1:]:
        acc += part
    if factored:
        acc *= (a if symmetric else np.exp(tt / (-2.0 * kernel.tau**2)))[:, None]
    zero = np.flatnonzero(acc[:, p] == 0.0)
    if zero.size:
        raise IsolatedCenterError(int(zero[0]))
    return acc[:, :p] / acc[:, p, None] + mu


def blurring_step(points: PointSet, kernel: Kernel) -> PointSet:
    """One synchronous blurring update of the whole cloud.

    Every point moves to the influence-weighted average of the current
    cloud; all updates read the same snapshot. The self term enters with
    influence exactly 1, so denominators are always positive.
    """
    x, w = points.positions, points.weights
    return PointSet(_reduce(x, x, _scaled_weights(w), kernel, symmetric=True), w.copy())


def nonblurring_step(centers: np.ndarray, data: PointSet, kernel: Kernel) -> np.ndarray:
    """One update of ``centers`` against the fixed ``data`` cloud.

    Raises IsolatedCenterError if some center collects zero influence from
    every data point (possible under a truncated kernel).
    """
    c = np.asarray(centers, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[1] != data.dimension:
        raise ValueError("centers and data must share a dimension")
    return _reduce(c, data.positions, _scaled_weights(data.weights), kernel, symmetric=False)


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
    underflow of the squares."""
    fi = np.finfo(float)
    r = np.sqrt(_sq_dists(x, x.mean(axis=0)[None])[:, 0])
    far = int(np.argmax(r))
    best = float(_sq_dists(x[far, None], x).max())
    slack = (x.shape[1] + 2) * (8.0 * fi.eps * r[far] + math.sqrt(fi.tiny))
    keep = x[r >= math.sqrt(best) - r[far] - slack]
    for i0 in range(0, keep.shape[0], _TILE_ROWS):
        best = max(best, float(_sq_dists(keep[i0 : i0 + _TILE_ROWS], keep[i0:]).max()))
    return math.sqrt(best)


def _cloud_stds(x: np.ndarray) -> np.ndarray:
    if x.shape[0] < 2:
        return np.zeros(x.shape[1])
    with np.errstate(over="ignore"):
        stds = x.std(axis=0, ddof=1)
    wide = ~np.isfinite(stds)
    if wide.any():
        # each squared deviation fits a double but their sum need not: sum
        # them scaled by the largest, then scale back
        dev = x[:, wide] - x[:, wide].mean(axis=0)
        top = np.abs(dev).max(axis=0)
        stds[wide] = top * (dev / top).std(axis=0, ddof=1)
    return stds


def run(points: PointSet, config: RunConfig, data: Optional[PointSet] = None):
    """Iterate until the largest per-point displacement drops below
    ``config.stop_displacement`` or ``config.max_iterations`` is exhausted.

    Blurring mode iterates ``points`` as the moving cloud. Nonblurring mode
    treats ``points`` as the initial centers and averages them against
    ``data`` (defaulting to the same cloud, centers start on the data).

    Returns (final PointSet, IterationTrace). Exhausting the iteration
    budget is not an error; the trace's ``converged`` flag reports it. The
    inputs are checked here once; the steps run on bare arrays.
    """
    symmetric = config.mode == "blurring"
    if symmetric and data is not None:
        raise ValueError("blurring mode does not take separate data")
    fixed = points if data is None else data
    if fixed.dimension != points.dimension:
        raise ValueError("centers and data must share a dimension")
    x = points.positions.copy()
    w = _scaled_weights(fixed.weights)
    disps, radii, stds = [], [], []
    positions = [] if config.trace_level == "full" else None

    def record(disp: float, x: np.ndarray) -> None:
        if config.trace_level != "none":
            disps.append(disp)
            radii.append(_max_pairwise_distance(x))
            stds.append(_cloud_stds(x))
        if positions is not None:
            positions.append(x.copy())

    converged = False
    for t in range(1, config.max_iterations + 1):
        if symmetric:
            new_x = _reduce(x, x, w, config.kernel, symmetric=True)
        else:
            new_x = _reduce(x, fixed.positions, w, config.kernel, symmetric=False)
        if t == 1:
            # only now: the first step rejects a cloud too wide to measure
            # before its radius and stds overflow
            record(math.nan, x)
        step = new_x - x
        disp = float(np.sqrt(np.max(np.einsum("ij,ij->i", step, step))))
        x = new_x
        record(disp, x)
        if disp < config.stop_displacement:
            converged = True
            break
    trace = IterationTrace(
        max_displacements=np.array(disps),
        radii=np.array(radii),
        stds=np.array(stds).reshape(len(stds), x.shape[1]),
        positions=positions,
        converged=converged,
        iterations=t,
    )
    return PointSet(x, points.weights.copy()), trace


def _component_labels(x: np.ndarray, tol: float) -> np.ndarray:
    """Connected components of the 'within tol of each other' graph
    (single linkage), labeled in order of each component's first point.

    Squared distances come from ``_sq_dists``: the expanded form's
    rounding off the origin is far above tol^2 at the default tolerance,
    and would split collapsed clusters."""
    n = x.shape[0]
    tol_sq = tol * tol
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
    return labels


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
    sums = np.column_stack([np.bincount(labels, weights=w * xd) for xd in x.T])
    centers = sums / np.bincount(labels, weights=w)[:, None]
    return ClusterResult(labels=labels, centers=centers, sizes=np.bincount(labels))


def majority_mode(result: ClusterResult) -> np.ndarray:
    """Center of the most populated cluster; ties go to the lowest label."""
    return result.centers[int(np.argmax(result.sizes))].copy()

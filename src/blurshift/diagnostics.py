"""Contraction diagnostics over iteration traces, plus the adaptive-weight
oscillation construction showing why fixed weights matter.

The checks here certify, on concrete runs, the geometric facts the engine's
convergence rests on: the convex hull of the cloud never grows under fixed
weights, the largest pairwise distance never grows, and once clusters
separate beyond the kernel support they stop influencing each other.

``run_counterexample`` builds the opposite: a three-point configuration
where re-solving the weights every iteration forces the middle point to flip
sign forever, so the synchronous update never settles. Freezing any of those
weight snapshots restores convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (
    DEFAULT_MAX_ITERATIONS,
    ClusterResult,
    IterationTrace,
    PointSet,
    RunConfig,
    blurring_step,
    run,
)
from .engine import _TILE_ROWS, _as_count, _sq_dists
from .kernels import Kernel, TruncatedFlatKernel

__all__ = [
    "HullTrace",
    "RadiusReport",
    "DirectionalReport",
    "InfluenceReport",
    "CounterexampleTrace",
    "UnsupportedDimensionError",
    "CounterexampleBreakdownError",
    "hull_trace",
    "radius_trace",
    "directional_containment",
    "influence_decay",
    "oscillation_kernel",
    "run_counterexample",
    "frozen_weight_run",
]

_CONTAIN_TOL = 1e-12
# the random unit directions directional_containment projects onto
_DIRECTIONS = 20
_DIRECTION_SEED = 0


class UnsupportedDimensionError(ValueError):
    """Exact hulls are only built in 1 or 2 dimensions."""

    def __init__(self, dimension: int):
        self.dimension = int(dimension)
        super().__init__(
            f"exact hulls are not built for dimension {dimension}; "
            "use radius_trace and directional_containment instead"
        )


class CounterexampleBreakdownError(RuntimeError):
    """The oscillation weight solve failed at some iteration."""

    def __init__(self, iteration: int, reason: str):
        self.iteration = int(iteration)
        self.reason = reason
        super().__init__(f"weight solve broke down at iteration {iteration}: {reason}")


@dataclass
class HullTrace:
    """Per-iteration convex hulls with a nesting verdict.

    In 1D each hull is the array [low, high]; in 2D an (k, 2) array of
    vertices in counterclockwise order with collinear points dropped.
    ``nested`` reports whether every hull contains its successor within a
    rounding tolerance; ``first_violation`` is the first iteration whose
    hull pokes outside its predecessor, or None.
    """

    dimension: int
    hulls: list
    nested: bool
    first_violation: Optional[int]


@dataclass
class RadiusReport:
    radii: np.ndarray
    nonincreasing: bool
    first_violation: Optional[int]


@dataclass
class DirectionalReport:
    """Support-function containment along random unit directions."""

    n_directions: int
    contained: bool
    first_violation: Optional[int]
    max_overshoot: float


@dataclass
class InfluenceReport:
    """Largest kernel influence between points of different clusters at the
    final recorded iteration. Vacuous when there is a single cluster."""

    max_cross_influence: float
    pair: Optional[tuple]
    vacuous: bool


def _positions_from(trace: IterationTrace) -> list:
    if not trace.positions:
        raise ValueError("this diagnostic needs a trace recorded at trace_level='full'")
    return trace.positions


def _tolerance(positions: list) -> float:
    """Containment slack in distance units: ``_CONTAIN_TOL`` times the
    largest |coordinate|, taken as at least 1."""
    return _CONTAIN_TOL * max(1.0, max(float(np.abs(x).max()) for x in positions))


def _first(grew) -> Optional[int]:
    """1-based index of the first step flagged in ``grew``, or None."""
    hit = np.flatnonzero(grew)
    return int(hit[0]) + 1 if hit.size else None


def _hull_2d(x: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull by the monotone chain, collinear points
    dropped so the polygon is strictly convex."""
    # rows in lexicographic order: primary x, secondary y
    pts = np.unique(x, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq) -> list:
        # each point in turn, once the points it would leave behind a
        # clockwise turn or a straight line are popped; both ends stay
        out = []
        for q in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    return np.array(chain(pts)[:-1] + chain(pts[::-1])[:-1])


def _hull_directions(hull: np.ndarray) -> np.ndarray:
    """Unit outward edge normals of a (k, p) hull, then +-each axis.

    The half-planes along these directions cut out the hull exactly: the
    normals bound a polygon, and the axes close off a segment or a point. A
    1-d hull gets the axes alone.
    """
    p = hull.shape[1]
    axes = np.vstack([np.eye(p), -np.eye(p)])
    if p == 1 or hull.shape[0] < 2:
        return axes
    # counterclockwise vertices: the outward normal is the edge turned clockwise
    edges = np.roll(hull, -1, axis=0) - hull
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals /= np.hypot(edges[:, 0], edges[:, 1])[:, None]
    return np.vstack([normals, axes])


def _overshoot(prev: np.ndarray, cur: np.ndarray, dirs: np.ndarray) -> float:
    """Largest amount, in distance units, by which the support function of
    the rows of ``cur`` exceeds that of ``prev`` along the unit ``dirs``."""
    return float(((cur @ dirs.T).max(axis=0) - (prev @ dirs.T).max(axis=0)).max())


def hull_trace(trace: IterationTrace) -> HullTrace:
    """Convex hull of the cloud at every recorded iteration, with a verdict
    on whether each hull contains the next.

    A hull contains its successor when no support of the successor exceeds
    the hull's own by more than the rounding tolerance, along the hull's
    outward edge normals and the axes. Needs a full-position trace. Only
    dimensions 1 and 2 get exact hulls; higher dimensions raise
    UnsupportedDimensionError (radius_trace and directional_containment
    cover those).
    """
    positions = _positions_from(trace)
    p = positions[0].shape[1]
    if p > 2:
        raise UnsupportedDimensionError(p)
    hulls = [_hull_2d(x) if p == 2 else np.r_[x.min(), x.max()] for x in positions]
    vertices = [h.reshape(-1, p) for h in hulls]
    tol = _tolerance(positions)
    grew = [_overshoot(a, b, _hull_directions(a)) > tol for a, b in zip(vertices, vertices[1:])]
    first = _first(grew)
    return HullTrace(dimension=p, hulls=hulls, nested=first is None, first_violation=first)


def radius_trace(trace: IterationTrace) -> RadiusReport:
    """Largest pairwise distance per recorded iteration and whether the
    sequence ever grows beyond rounding."""
    radii = trace.radii
    if not radii.size:
        raise ValueError("trace has no records")
    first = _first(radii[1:] > radii[:-1] * (1 + _CONTAIN_TOL) + _CONTAIN_TOL)
    return RadiusReport(radii=radii, nonincreasing=first is None, first_violation=first)


def directional_containment(trace: IterationTrace) -> DirectionalReport:
    """Checks hull containment through support functions: along each of
    20 random unit directions drawn from seed 0, the maximum projection must
    never grow from one iteration to the next. Works in any dimension; in 2D
    it agrees with the exact hull verdict on everything it can see."""
    positions = _positions_from(trace)
    p = positions[0].shape[1]
    rng = np.random.default_rng(_DIRECTION_SEED)
    dirs = rng.normal(size=(_DIRECTIONS, p))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    overshoot = [_overshoot(prev, cur, dirs) for prev, cur in zip(positions, positions[1:])]
    tol = _tolerance(positions)
    first = _first([o > tol for o in overshoot])
    return DirectionalReport(
        n_directions=_DIRECTIONS,
        contained=first is None,
        first_violation=first,
        max_overshoot=max([0.0, *overshoot]),
    )


def influence_decay(
    trace: IterationTrace, kernel: Kernel, result: ClusterResult
) -> InfluenceReport:
    """Largest kernel influence across cluster boundaries at the final
    recorded iteration.

    Once clusters separate beyond the kernel support this is exactly 0 and
    they evolve independently; a single cluster makes the check vacuous.
    """
    final = _positions_from(trace)[-1]
    if final.shape[0] != result.labels.shape[0]:
        raise ValueError("trace and cluster result disagree on the number of points")
    if result.n_clusters < 2:
        return InfluenceReport(max_cross_influence=0.0, pair=None, vacuous=True)
    best, pair = -1.0, None
    for i0 in range(0, final.shape[0], _TILE_ROWS):
        f = kernel.evaluate_sq(_sq_dists(final[i0 : i0 + _TILE_ROWS], final))
        f[result.labels[i0 : i0 + _TILE_ROWS, None] == result.labels] = -1.0
        i, j = np.unravel_index(np.argmax(f), f.shape)
        if f[i, j] > best:  # ties keep the first pair in row-major order
            best, pair = float(f[i, j]), (i0 + int(i), int(j))
    return InfluenceReport(max_cross_influence=best, pair=pair, vacuous=False)


# ---------------------------------------------------------------------------
# the adaptive-weight oscillation


def oscillation_kernel() -> TruncatedFlatKernel:
    """The two-level flat kernel driving the oscillation: full influence at
    distance 0, half influence out to distance 1, none beyond."""
    return TruncatedFlatKernel(levels=((0.0, 1.0), (1.0, 0.5)))


@dataclass
class CounterexampleTrace:
    """States and weights of the oscillation run.

    states: (iterations + 1, 3) positions, row 0 the initial configuration.
    weights: (iterations, 3) weights used to produce each subsequent row;
    the first weight is pinned at 1.
    """

    states: np.ndarray
    weights: np.ndarray
    delta_min: float

    def flip_count(self) -> int:
        """Number of consecutive sign alternations of the middle point."""
        signs = np.sign(self.states[:, 0])
        return int(np.sum(signs[1:] * signs[:-1] < 0))


# relative margin past delta_min so rounding cannot drop |x1| below it
_FLIP_MARGIN = 1e-9
# largest exponent k tried for a power-of-two outer weight 2**k
_MAX_DOUBLINGS = 200


def _flip_weights(iteration: int, x: np.ndarray, delta_min: float, floor: int) -> np.ndarray:
    """Weights that push the middle point of ``x`` to the opposite sign at
    magnitude ``delta_min`` while both outer points stay beyond +-1/2.

    The two outer weights start from the smallest powers of two, from
    2**floor up, keeping their own points outside the central band; then one
    of them is raised by an exact linear solve so the middle point lands at
    the sign-flipped target.
    """
    x1, x2, x3 = (float(v) for v in x)
    target = -math.copysign(delta_min * (1.0 + _FLIP_MARGIN), x1)

    def smallest_power(pred) -> float:
        for k in range(floor, _MAX_DOUBLINGS + 1):
            w = 2.0**k
            if pred(w):
                return w
        raise CounterexampleBreakdownError(
            iteration, "no power-of-two weight satisfies the band constraint"
        )

    # each outer point must stay outside the central band on its own
    w2 = smallest_power(lambda w: (2 * w * x2 + x1) / (2 * w + 1) > 0.5)
    w3 = smallest_power(lambda w: (2 * w * x3 + x1) / (2 * w + 1) < -0.5)
    x1_next = (2 * x1 + w2 * x2 + w3 * x3) / (2 + w2 + w3)
    # raise exactly one weight so the middle point lands on the target;
    # raising w3 pushes x3 further out, raising w2 pushes x2 further out,
    # so the band constraints cannot be un-solved by this step
    if x1_next > target:
        w3 = (2 * (x1 - target) + w2 * (x2 - target)) / (target - x3)
    elif x1_next < target:
        w2 = (2 * (target - x1) + w3 * (target - x3)) / (x2 - target)
    if not (math.isfinite(w2) and w2 > 0 and math.isfinite(w3) and w3 > 0):
        raise CounterexampleBreakdownError(iteration, "weight solve left the feasible range")
    return np.array([1.0, w2, w3])


def _three_points(deltas: tuple) -> np.ndarray:
    """The configuration (d1, 1/2 + d2, -1/2 - d3); each offset must lie in
    (0, 1/4) so all pair distances start on the correct side of the
    kernel's bands."""
    d1, d2, d3 = (float(v) for v in deltas)
    if not all(0.0 < v < 0.25 for v in (d1, d2, d3)):
        raise ValueError("each delta must lie strictly between 0 and 1/4")
    return np.array([d1, 0.5 + d2, -0.5 - d3])


def _oscillation_invariants_hold(new: np.ndarray, old_x1: float, delta_min: float) -> bool:
    x1, x2, x3 = (float(v) for v in new)
    return (
        x2 > 0.5
        and x3 < -0.5
        and abs(x1) >= delta_min
        and (x1 > 0) != (old_x1 > 0)
        and abs(x1 - x2) < 1.0
        and abs(x1 - x3) < 1.0
        and abs(x2 - x3) > 1.0
    )


def run_counterexample(
    deltas: tuple = (0.1, 0.1, 0.1),
    iterations: int = 50,
    delta_min: float = 0.05,
) -> CounterexampleTrace:
    """Drive the three-point oscillation for ``iterations`` synchronous
    updates, re-solving the outer weights each time so the middle point
    flips sign forever while the outer points never enter (-1/2, 1/2).

    Offsets ``deltas`` place the points at (d1, 1/2 + d2, -1/2 - d3); each
    must lie in (0, 1/4) so all pair distances start on the correct side of
    the kernel's bands. Raises CounterexampleBreakdownError if no weight
    assignment keeps the invariants at some iteration.
    """
    x = _three_points(deltas)
    if not 0.0 < delta_min < 0.25:
        raise ValueError("delta_min must lie strictly between 0 and 1/4")
    iterations = _as_count("iterations", iterations)
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    kernel = oscillation_kernel()
    states = [x.copy()]
    weights_hist = []
    for t in range(iterations):
        # the closed-form feasibility check may disagree with the engine's
        # rounding by an ulp; retry from a higher doubling rung until the
        # true update keeps the invariants
        accepted = None
        for floor in range(0, 64):
            w = _flip_weights(t, x, delta_min, floor)
            new = blurring_step(PointSet(x, w), kernel).positions.ravel()
            if _oscillation_invariants_hold(new, float(x[0]), delta_min):
                accepted = (w, new)
                break
        if accepted is None:
            raise CounterexampleBreakdownError(
                t, "no doubling floor produced an update keeping the invariants"
            )
        w, x = accepted
        states.append(x.copy())
        weights_hist.append(w)
    return CounterexampleTrace(
        states=np.array(states),
        weights=np.array(weights_hist),
        delta_min=float(delta_min),
    )


def frozen_weight_run(
    deltas: tuple = (0.1, 0.1, 0.1),
    weights=None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
):
    """Run the same three-point configuration with weights held fixed.

    ``weights`` defaults to all ones; pass any row of a
    CounterexampleTrace to confirm that freezing the adaptive choice
    restores convergence. Returns (final PointSet, IterationTrace).
    """
    x = _three_points(deltas)
    w = np.ones(3) if weights is None else np.asarray(weights, dtype=float)
    cfg = RunConfig(
        kernel=oscillation_kernel(),
        mode="blurring",
        max_iterations=max_iterations,
        trace_level="full",
    )
    return run(PointSet(x, w), cfg)

"""Radial influence kernels.

A kernel maps a nonnegative inter-point distance to an influence value in
[0, 1]. The iteration engine only ever feeds squared distances to a kernel,
so every family here is radial by construction. All families pin influence
exactly 1 at distance 0.

The Gaussian and piecewise-constant families are nonincreasing with distance
by construction; the piecewise-constant one may hold 1 away from 0. A
tabulated profile is interpolated as given, and its monotonicity is not
checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianKernel",
    "TruncatedFlatKernel",
    "TabulatedKernel",
    "Kernel",
    "kernel_to_config",
    "KernelConfigError",
]


# a Gaussian evaluation divides by -2 tau^2, so tau^2 must be a normal
# double and twice it finite; the shrinkage recursions hold their lengths
# to the same range
_MIN_TAU_SQ = float(np.finfo(float).tiny)
_MAX_TAU_SQ = float(np.finfo(float).max) / 2
# squared distance, in units of tau^2, at and past which the Gaussian
# influence exp(-z / 2) is exactly 0 in double precision
_ZERO_SQ_DISTANCE = 1500.0


def _check_scale(name: str, value: float) -> None:
    """Reject a length unless its square is a normal double and twice its
    square is finite, so that a sum of two such squares cannot overflow."""
    if not (value > 0 and _MIN_TAU_SQ <= value * value <= _MAX_TAU_SQ):
        raise ValueError(
            f"{name} must keep {name}^2 a normal double and 2 {name}^2 finite "
            f"(about 1.5e-154 <= {name} <= 9.5e153), got {value!r}"
        )


class KernelConfigError(ValueError):
    """A ValueError for kernel settings from outside the program, such as
    command-line flags, that describe no valid kernel."""


class Kernel:
    """Base interface. Subclasses implement ``_fill_sq(z, inside=None)``,
    which overwrites a float array of nonnegative squared distances with
    their influences in place, support cutoff included. The fill is
    elementwise: each entry's influence depends on that entry alone, so a
    vector gathered from a tile fills to the same bits as the whole tile.

    ``_zero_sq`` is the kernel's exact squared zero radius: every squared
    distance past it has influence exactly +0.0. The engine fills a tile
    with few entries inside it by gathering those entries alone; a denser
    tile it fills whole and passes ``inside``, the bool mask of
    z <= ``_zero_sq``, which the fill may use in place of a comparison of
    its own and may overwrite. Without ``inside``, as from
    ``evaluate_sq``, the fill makes its own comparisons."""

    support_radius: float
    # no exact zero known: the engine evaluates every entry
    _zero_sq = math.inf

    def evaluate_sq(self, sq_distances):
        """Influence, in [0, 1], at the given squared distance(s): a scalar
        gives a float, an array an array of the same shape. Negative and NaN
        values raise ValueError."""
        scalar = np.ndim(sq_distances) == 0
        out = np.atleast_1d(np.array(sq_distances, dtype=float))
        if not (out >= 0).all():
            raise ValueError("squared distances must be nonnegative, not NaN")
        self._fill_sq(out)
        return float(out[0]) if scalar else out

    def _fill_sq(self, z):  # pragma: no cover - abstract
        raise NotImplementedError

    def _settle_support(self, intrinsic: float) -> None:
        """An unset (None) support radius takes the profile's own support
        ``intrinsic``; a set one must be positive and is capped at it."""
        r = self.support_radius
        if r is not None:
            if not r > 0:
                raise ValueError("support_radius must be positive")
            intrinsic = min(r, intrinsic)
        object.__setattr__(self, "support_radius", intrinsic)


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """exp(-d^2 / (2 tau^2)), optionally forced to zero beyond a cutoff radius.

    The cutoff turns the profile into a compactly supported kernel while
    keeping the Gaussian shape inside the support; experiments that need
    outliers to decouple deterministically use it. Without one (None, the
    default) the support radius reads inf.
    """

    tau: float
    support_radius: float | None = None

    def __post_init__(self):
        _check_scale("tau", self.tau)
        self._settle_support(math.inf)
        r = self.support_radius
        object.__setattr__(
            self, "_zero_sq", min(r * r, _ZERO_SQ_DISTANCE * self.tau * self.tau)
        )

    def _fill_sq(self, z, inside=None):
        r = self.support_radius
        keep = None
        if math.isfinite(r):
            # the mask of the zero radius serves for the cutoff's: the two
            # differ only past 1500 tau^2, where the clamp below gives 0
            keep = z <= r * r if inside is None else inside
        # exp(-750) is already exactly 0, so no influence changes: entries
        # past the cutoff are zeroed below, and the clamp keeps exp off its
        # slow path for large negative arguments and the divide from
        # overflowing on clouds wide against tau
        np.minimum(z, self._zero_sq, out=z)
        np.divide(z, -2.0 * self.tau * self.tau, out=z)
        np.exp(z, out=z)
        if keep is not None:
            np.multiply(z, keep, out=z)


@dataclass(frozen=True)
class TruncatedFlatKernel(Kernel):
    """Piecewise-constant profile given as ordered (threshold, value) levels.

    Level k holds on distances in (threshold_{k-1}, threshold_k]; influence is
    0 beyond the last threshold. Distance 0 always evaluates to 1, so a
    leading (0.0, 1.0) level is allowed but redundant. Values must sit in
    [0, 1] and be nonincreasing; thresholds strictly increasing.

    Evaluation compares each squared distance with every squared bound (the
    thresholds below the support radius, the radius itself and 0), one pass
    per bound, so its cost grows linearly with the number of levels. The
    zero radius is the support radius, so the engine evaluates only the
    pairs inside the support of a tile where they are few.
    """

    levels: tuple
    support_radius: float | None = None

    def __post_init__(self):
        levels = tuple((float(t), float(v)) for t, v in self.levels)
        if not levels:
            raise ValueError("levels must be nonempty")
        thresholds = [t for t, _ in levels]
        values = [v for _, v in levels]
        # the kernel compares squared distances, so each t^2 must be finite
        if any(not (t >= 0 and t * t < math.inf) for t in thresholds):
            raise ValueError(
                "thresholds must be nonnegative with a finite square "
                f"(at most about 1.34e154), got {thresholds}"
            )
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("level values must lie in [0, 1]")
        if any(b > a for a, b in zip(values, values[1:])):
            raise ValueError("level values must be nonincreasing")
        if thresholds[0] == 0.0 and values[0] != 1.0:
            raise ValueError("a level at threshold 0 must have value 1")
        object.__setattr__(self, "levels", levels)
        # values are nonincreasing: the support ends at the last positive level
        self._settle_support(max([t for t, v in levels if v > 0], default=0.0))
        # squared interval bounds and the influence on each: 1 at 0 exactly,
        # level k on (t_{k-1}^2, t_k^2], the level holding the support radius
        # r on its last stretch up to r^2, and 0 beyond r^2
        r_sq = self.support_radius * self.support_radius
        t_sq = np.array(thresholds) ** 2
        k = int(np.count_nonzero(t_sq < r_sq))
        object.__setattr__(self, "_bounds_sq", np.r_[0.0, t_sq[:k], r_sq])
        object.__setattr__(
            self, "_table", np.r_[1.0, values[:k], values[k] if k < len(values) else 0.0, 0.0]
        )
        object.__setattr__(self, "_zero_sq", r_sq)

    def _fill_sq(self, z, inside=None):
        # searchsorted's left index is the count of bounds below z: start at
        # every bound and take one off for each bound at or above z. NaN is
        # at or above none, so it lands past every bound, as there. The index
        # is the narrowest unsigned type that holds the bound count, a byte up
        # to 255 bounds, where the bool pass viewed as bytes needs no cast
        bounds = self._bounds_sq
        idx = np.full(z.shape, len(bounds), dtype=np.min_scalar_type(len(bounds)))
        if inside is None:
            at_or_above = np.empty(z.shape, dtype=bool)
        else:
            # the last bound is the zero radius, whose pass is the mask; the
            # mask then holds the passes of the others
            np.subtract(idx, inside.view(np.uint8), out=idx)
            bounds, at_or_above = bounds[:-1], inside
        for b in bounds:
            np.less_equal(z, b, out=at_or_above)
            np.subtract(idx, at_or_above.view(np.uint8), out=idx)
        np.take(self._table, idx, out=z, mode="clip")


@dataclass(frozen=True)
class TabulatedKernel(Kernel):
    """Profile given as (distance, value) knots, linearly interpolated.

    The first knot must be (0, 1). Beyond the last knot the last value is
    held, so a profile ending at a positive value has infinite support.
    Values are interpolated as given: monotonicity is not checked.
    """

    knots: tuple
    support_radius: float | None = None

    def __post_init__(self):
        knots = tuple((float(d), float(v)) for d, v in self.knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        ds = [d for d, _ in knots]
        vs = [v for _, v in knots]
        if ds[0] != 0.0 or vs[0] != 1.0:
            raise ValueError("first knot must be (0, 1)")
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise ValueError("knot distances must be strictly increasing")
        if any(not d * d < math.inf for d in ds):
            raise ValueError(
                "knot distances must have a finite square "
                f"(at most about 1.34e154), got {ds}"
            )
        if any(not 0.0 <= v <= 1.0 for v in vs):
            raise ValueError("knot values must lie in [0, 1]")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_ds", np.array(ds))
        object.__setattr__(self, "_vs", np.array(vs))
        # intrinsic support: first knot from which the profile is identically 0
        intrinsic = math.inf
        if vs[-1] == 0.0:
            k = len(vs) - 1
            while k > 0 and vs[k - 1] == 0.0:
                k -= 1
            intrinsic = ds[k]
        self._settle_support(intrinsic)
        r = self.support_radius
        object.__setattr__(self, "_zero_sq", r * r)

    def _fill_sq(self, z, inside=None):
        r = self.support_radius
        keep = None
        if math.isfinite(r):
            keep = z <= r * r if inside is None else inside
        z[...] = np.interp(np.sqrt(z), self._ds, self._vs)
        if keep is not None:
            np.multiply(z, keep, out=z)


def kernel_to_config(kernel: Kernel) -> dict:
    """The built-in kernel's family and parameters as a JSON-ready mapping,
    e.g. ``{"family": "gaussian", "tau": 2.0}``; a finite support radius
    adds ``"support_radius"``."""
    if isinstance(kernel, GaussianKernel):
        cfg = {"family": "gaussian", "tau": kernel.tau}
    elif isinstance(kernel, TruncatedFlatKernel):
        cfg = {"family": "truncated_flat", "levels": [list(l) for l in kernel.levels]}
    elif isinstance(kernel, TabulatedKernel):
        cfg = {"family": "tabulated", "profile": [list(k) for k in kernel.knots]}
    else:
        raise TypeError(f"unknown kernel type: {type(kernel).__name__}")
    if math.isfinite(kernel.support_radius):
        cfg["support_radius"] = kernel.support_radius
    return cfg

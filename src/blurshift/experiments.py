"""Monte Carlo harnesses for mode-estimation studies.

Three experiment kinds over 1-d Gaussian data:

* efficiency: compare the spread of three location statistics over many
  replications: the sample mean, the blurring limit point, and the majority
  mode of nonblurring centers started on the data.
* robustness: same comparison under 5% contamination by a far cluster, where
  the majority mode should ignore the outliers but the sample mean cannot.
* convergence_rate: per-iteration mean and spread of the cloud for both
  modes on one sample, showing the collapse speed difference.

Every replication draws from its own RNG substream derived from the master
seed and the replication index, so reports are bit-identical regardless of
how replications are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .engine import (
    PointSet,
    RunConfig,
    extract_clusters,
    majority_mode,
    run,
)
from .kernels import GaussianKernel

__all__ = [
    "MixtureSpec",
    "contaminated_gaussian_mixture",
    "ExperimentConfig",
    "SummaryStat",
    "ExperimentReport",
    "ConvergenceSeries",
    "ConvergenceRateReport",
    "summarize",
    "sample_gaussian",
    "sample_mixture",
    "replication_rng",
    "run_efficiency",
    "run_robustness",
    "run_convergence_rate",
    "TooFewConvergedError",
]

EXPERIMENT_KINDS = ("efficiency", "robustness", "convergence_rate")


class TooFewConvergedError(RuntimeError):
    """Fewer than two replications converged in both modes, so there is no
    spread to summarize."""

    def __init__(self, converged: int, replications: int):
        self.converged = int(converged)
        self.replications = int(replications)
        super().__init__(
            f"{converged} of {replications} replications converged in both modes; "
            "at least two are needed to summarize"
        )


# Sentinel: resolve the truncation per experiment kind (see ExperimentConfig).
AUTO = "auto"
DEFAULT_ROBUSTNESS_TRUNCATION = 3.0


@dataclass(frozen=True)
class MixtureSpec:
    """Fixed-design 1-d Gaussian mixture: exact per-component counts,
    never a multinomial draw.

    proportions must sum to 1 and, when sampling n points, each
    proportion * n must be a whole number.
    """

    means: tuple
    stds: tuple
    proportions: tuple
    labels: tuple = ()

    def __post_init__(self):
        means = tuple(float(v) for v in self.means)
        stds = tuple(float(v) for v in self.stds)
        props = tuple(float(v) for v in self.proportions)
        if not means or len(means) != len(stds) or len(means) != len(props):
            raise ValueError("means, stds and proportions must have equal nonzero length")
        if any(not (s > 0 and math.isfinite(s)) for s in stds):
            raise ValueError("component stds must be positive and finite")
        if any(not (0 < p <= 1) for p in props):
            raise ValueError("proportions must lie in (0, 1]")
        if abs(sum(props) - 1.0) > 1e-12:
            raise ValueError("proportions must sum to 1")
        labels = tuple(self.labels) if self.labels else tuple(
            f"component_{i}" for i in range(len(means))
        )
        if len(labels) != len(means):
            raise ValueError("labels must match the number of components")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "proportions", props)
        object.__setattr__(self, "labels", labels)

    @property
    def n_components(self) -> int:
        return len(self.means)

    def component_counts(self, n: int) -> tuple:
        counts = []
        for p in self.proportions:
            c = p * n
            r = round(c)
            if abs(c - r) > 1e-9:
                raise ValueError(
                    f"proportion {p} of {n} points is not a whole number of draws"
                )
            counts.append(int(r))
        if sum(counts) != n:
            raise ValueError("component counts do not sum to the requested size")
        return tuple(counts)


def contaminated_gaussian_mixture(
    outlier_mean: float = 5.0,
    outlier_std: float = 1.0,
    outlier_share: float = 0.05,
) -> MixtureSpec:
    """A standard normal core plus a small far component labeled 'outlier'."""
    return MixtureSpec(
        means=(0.0, outlier_mean),
        stds=(1.0, outlier_std),
        proportions=(1.0 - outlier_share, outlier_share),
        labels=("core", "outlier"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment run.

    truncation_multiple: a number cuts the Gaussian influence to exactly
    zero beyond that multiple of tau, in BOTH modes. None keeps the
    everywhere-positive profile, under which a single cluster is guaranteed
    and outlier separation would hinge on float underflow. The default
    "auto" resolves per kind: 3.0 for robustness, so the outlier cluster
    decouples deterministically, and None for everything else.
    """

    kind: str
    tau: float
    n_points: int = 100
    replications: int = 2000
    seed: int = 0
    mixture: Optional[MixtureSpec] = None
    truncation_multiple: object = AUTO
    stop_displacement: float = 1e-10
    max_iterations: int = 500
    merge_tolerance: float = 1e-6

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.truncation_multiple == AUTO:
            resolved = (
                DEFAULT_ROBUSTNESS_TRUNCATION if self.kind == "robustness" else None
            )
            object.__setattr__(self, "truncation_multiple", resolved)
        if self.truncation_multiple is not None and not isinstance(
            self.truncation_multiple, (int, float)
        ):
            raise ValueError("truncation_multiple must be a number, None, or 'auto'")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.truncation_multiple is not None and not self.truncation_multiple > 0:
            raise ValueError("truncation_multiple must be positive or None")
        if not self.stop_displacement > 0:
            raise ValueError("stop_displacement must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.merge_tolerance >= 0:
            raise ValueError("merge_tolerance must be nonnegative")

    def kernel(self) -> GaussianKernel:
        if self.truncation_multiple is None:
            return GaussianKernel(tau=self.tau)
        return GaussianKernel(
            tau=self.tau, support_radius=self.truncation_multiple * self.tau
        )

    def engine_config(self, mode: str) -> RunConfig:
        return RunConfig(
            kernel=self.kernel(),
            mode=mode,
            stop_displacement=self.stop_displacement,
            max_iterations=self.max_iterations,
            trace_level="none",
        )


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    std: float
    count: int


def summarize(values) -> SummaryStat:
    """Arithmetic mean and unbiased (count - 1) standard deviation."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two values to summarize")
    return SummaryStat(
        mean=float(arr.mean()), std=float(arr.std(ddof=1)), count=int(arr.size)
    )


@dataclass
class ExperimentReport:
    """Aggregated statistics plus the raw per-replication values behind them.

    values maps statistic name -> array over the replications that
    converged; replication_indices holds their original indices, so raw
    values stay attributable after exclusions; excluded_replications counts
    the ones that did not converge and were left out of every aggregate.
    """

    config: ExperimentConfig
    sample_mean: SummaryStat
    blurring: SummaryStat
    nonblurring: SummaryStat
    excluded_replications: int
    values: dict = field(default_factory=dict)
    replication_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )


@dataclass
class ConvergenceSeries:
    """Per-iteration cloud statistics for one mode, index 0 the raw sample."""

    mode: str
    means: np.ndarray
    stds: np.ndarray

    @property
    def log10_stds(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log10(self.stds)


@dataclass
class ConvergenceRateReport:
    config: ExperimentConfig
    blurring: ConvergenceSeries
    nonblurring: ConvergenceSeries


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """The RNG substream for one replication: seeded by (master seed,
    replication index), so any scheduling order reproduces the same draws."""
    return np.random.default_rng([int(seed), int(replication)])


def sample_gaussian(n: int, mean, cov, rng: np.random.Generator) -> PointSet:
    """n i.i.d. Gaussian points with unit weights. Scalars are accepted for
    the 1-d case; cov must be symmetric positive-definite."""
    if n < 1:
        raise ValueError("n must be at least 1")
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    sigma = np.asarray(cov, dtype=float)
    if sigma.ndim == 0:
        sigma = sigma.reshape(1, 1)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("cov must be a square matrix")
    if mu.shape != (sigma.shape[0],):
        raise ValueError("mean and cov dimensions disagree")
    if np.abs(sigma - sigma.T).max() > 1e-12 * max(1.0, np.abs(sigma).max()):
        raise ValueError("cov must be symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("cov must be positive-definite") from exc
    draws = rng.standard_normal((n, mu.size)) @ chol.T + mu
    return PointSet(draws)


def sample_mixture(mixture: MixtureSpec, n: int, rng: np.random.Generator):
    """Draw the fixed-design mixture: exactly proportion * n points from each
    component, in component order. Returns (PointSet, component labels)."""
    counts = mixture.component_counts(n)
    blocks = []
    labels = []
    for mean, std, count, label in zip(
        mixture.means, mixture.stds, counts, mixture.labels
    ):
        if count:
            blocks.append(rng.standard_normal(count) * std + mean)
            labels.extend([label] * count)
    x = np.concatenate(blocks)
    return PointSet(x), np.array(labels)


def _run_comparison(config: ExperimentConfig, draw) -> ExperimentReport:
    """Shared replication loop: draw a sample, run both modes on the same
    sample, record the three location statistics. A replication whose
    engine run exhausts the iteration budget is counted and excluded; the
    modes run in order and stop at the first that does."""
    values = {"sample_mean": [], "blurring": [], "nonblurring": []}
    kept = []
    for rep in range(config.replications):
        points = draw(replication_rng(config.seed, rep))
        finals = {}
        for mode in ("blurring", "nonblurring"):
            final, trace = run(points, config.engine_config(mode))
            if not trace.converged:
                break
            finals[mode] = final
        else:
            kept.append(rep)
            values["sample_mean"].append(float(points.positions[:, 0].mean()))
            for mode, final in finals.items():
                centre = majority_mode(extract_clusters(final, config.merge_tolerance))
                values[mode].append(float(centre[0]))
    if len(kept) < 2:
        raise TooFewConvergedError(len(kept), config.replications)
    values = {name: np.array(v) for name, v in values.items()}
    return ExperimentReport(
        config=config,
        sample_mean=summarize(values["sample_mean"]),
        blurring=summarize(values["blurring"]),
        nonblurring=summarize(values["nonblurring"]),
        excluded_replications=config.replications - len(kept),
        values=values,
        replication_indices=np.array(kept, dtype=int),
    )


def run_efficiency(config: ExperimentConfig) -> ExperimentReport:
    """Spread of the three location statistics on clean standard-normal
    samples. The blurring statistic is the center of the largest cluster,
    which under an everywhere-positive kernel is the single common limit."""
    if config.kind != "efficiency":
        raise ValueError("config.kind must be 'efficiency'")

    def draw(rng):
        return sample_gaussian(config.n_points, 0.0, 1.0, rng)

    return _run_comparison(config, draw)


def run_robustness(config: ExperimentConfig) -> ExperimentReport:
    """Same comparison on contaminated samples. The mixture defaults to the
    95/5 far-outlier design; the majority mode discards the outlier cluster
    whenever the kernel truncation keeps it decoupled."""
    if config.kind != "robustness":
        raise ValueError("config.kind must be 'robustness'")
    mixture = config.mixture or contaminated_gaussian_mixture()

    def draw(rng):
        points, _ = sample_mixture(mixture, config.n_points, rng)
        return points

    return _run_comparison(config, draw)


def run_convergence_rate(config: ExperimentConfig) -> ConvergenceRateReport:
    """Single-sample run of both modes with full traces, reduced to
    per-iteration mean and std of the cloud."""
    if config.kind != "convergence_rate":
        raise ValueError("config.kind must be 'convergence_rate'")
    rng = replication_rng(config.seed, 0)
    points = sample_gaussian(config.n_points, 0.0, 1.0, rng)

    def series(mode: str) -> ConvergenceSeries:
        _, trace = run(points, replace(config.engine_config(mode), trace_level="full"))
        positions = trace.positions_list()
        means = np.array([float(x[:, 0].mean()) for x in positions])
        stds = np.array([float(x[:, 0].std(ddof=1)) for x in positions])
        return ConvergenceSeries(mode=mode, means=means, stds=stds)

    return ConvergenceRateReport(
        config=config,
        blurring=series("blurring"),
        nonblurring=series("nonblurring"),
    )
